"""CUDA-capable GPU simulator.

Models the pieces of a discrete NVIDIA GPU that CRONUS's CUDA mOS manages
through nouveau/gdev (paper section V-B):

* **Contexts** — per-mEnclave GPU virtual address spaces.  A context can
  only name its own buffers; CRONUS leverages exactly this "GPU virtual
  address isolation" for isolating mEnclaves' code and data.
* **Streams** — asynchronous command queues.  Kernel launches return
  immediately; synchronization points (memcpy D2H, explicit sync) join the
  stream timeline.  This matches the execution model that makes sRPC
  profitable (section IV-C).
* **Spatial sharing (MPS/MIG model)** — concurrent contexts share SMs.  The
  utilization curve is calibrated so that a single tenant leaves the GPU
  underused (the ~10% utilization motivation of R2) and 2-3 tenants raise
  aggregate throughput by up to ~63% (figure 11a), with contention beyond.

Kernels are registered python functions over numpy arrays plus a flop
estimate, so results are checkable and timing is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.hw.devices import Device, MMIORegion
from repro.sim import CostModel, SimClock, Timeline


class GpuError(Exception):
    """Invalid GPU operation: bad handle, cross-context access, OOM."""


@dataclass(frozen=True)
class GpuKernel:
    """A registered kernel: the function plus its flop estimator."""

    name: str
    fn: Callable[..., None]
    flops: Callable[..., float]


KERNEL_REGISTRY: Dict[str, GpuKernel] = {}


def register_kernel(name: str, flops: Callable[..., float]):
    """Decorator registering a kernel under ``name``.

    The kernel receives the resolved numpy arrays (and keyword params) and
    mutates output arrays in place; ``flops(*arrays, **params)`` estimates
    its floating-point work for the timing model.
    """

    def decorate(fn: Callable[..., None]) -> Callable[..., None]:
        if name in KERNEL_REGISTRY:
            raise GpuError(f"kernel {name!r} already registered")
        KERNEL_REGISTRY[name] = GpuKernel(name=name, fn=fn, flops=flops)
        return fn

    return decorate


# Aggregate SM utilization with k concurrently active contexts.  One tenant
# cannot fill the machine (small kernels, launch gaps); 2-3 tenants overlap
# well (the paper's "up to 63.4%" gain = 0.90/0.55 - 1); at 4 contention
# (cache/DRAM bandwidth) costs aggregate throughput.
_UTILIZATION_CURVE = {1: 0.55, 2: 0.90, 3: 0.90, 4: 0.82}


def utilization(active_contexts: int) -> float:
    """Aggregate GPU utilization with ``active_contexts`` tenants (MPS)."""
    if active_contexts <= 0:
        return 0.0
    if active_contexts in _UTILIZATION_CURVE:
        return _UTILIZATION_CURVE[active_contexts]
    # Beyond 4, contention keeps slowly eroding aggregate throughput.
    return max(0.45, _UTILIZATION_CURVE[4] - 0.05 * (active_contexts - 4))


# Sharing modes the HAL can run the GPU in (paper section V-B: "other
# isolation techniques (e.g., MIG) can be directly integrated").
SHARING_MPS = "mps"
"""Dynamic SM sharing (NVIDIA MPS): high aggregate utilization, but
tenants contend — one tenant's load slows another's kernels."""

SHARING_MIG = "mig"
"""Static SM slicing (NVIDIA MIG): each tenant owns a fixed fraction of
the machine — perfect performance isolation, capped peak throughput."""


class GpuContext:
    """A per-tenant GPU virtual address space plus its default stream.

    ``quota_bytes`` caps this tenant's device memory — the manifest's
    declared resource capacity, enforced by the HAL (paper section IV-A:
    "a manifest is required to specify ... the resource capacity").
    """

    def __init__(
        self,
        device: "GpuDevice",
        context_id: int,
        owner: str,
        quota_bytes: Optional[int] = None,
    ) -> None:
        self._device = device
        self.context_id = context_id
        self.owner = owner
        self.quota_bytes = quota_bytes
        self.active = True
        self._buffers: Dict[int, np.ndarray] = {}
        self._next_handle = 1
        self.stream = Timeline(device.clock, name=f"{device.name}/ctx{context_id}")
        self.bytes_allocated = 0

    # -- memory ---------------------------------------------------------
    def alloc(self, shape: Tuple[int, ...], dtype=np.float32) -> int:
        """Allocate a device buffer; returns an opaque handle."""
        self._require_active()
        array = np.zeros(shape, dtype=dtype)
        if self._device.bytes_in_use + array.nbytes > self._device.memory_bytes:
            raise GpuError(
                f"GPU {self._device.name} out of memory "
                f"({self._device.bytes_in_use + array.nbytes} > {self._device.memory_bytes})"
            )
        if (
            self.quota_bytes is not None
            and self.bytes_allocated + array.nbytes > self.quota_bytes
        ):
            raise GpuError(
                f"context {self.context_id} exceeds its manifest quota "
                f"({self.bytes_allocated + array.nbytes} > {self.quota_bytes})"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._buffers[handle] = array
        self.bytes_allocated += array.nbytes
        self._device.bytes_in_use += array.nbytes
        return handle

    def free(self, handle: int) -> None:
        array = self._resolve(handle)
        self.bytes_allocated -= array.nbytes
        self._device.bytes_in_use -= array.nbytes
        del self._buffers[handle]

    def memcpy_h2d(self, handle: int, host: np.ndarray) -> None:
        """Synchronous host-to-device copy (charges PCIe DMA time)."""
        dst = self._resolve(handle)
        if dst.shape != host.shape:
            raise GpuError(f"h2d shape mismatch {host.shape} -> {dst.shape}")
        self._device.charge_dma(host.nbytes)
        np.copyto(dst, host.astype(dst.dtype, copy=False))

    def memcpy_d2h(self, handle: int) -> np.ndarray:
        """Synchronous device-to-host copy: joins the stream first."""
        src = self._resolve(handle)
        self.synchronize()
        self._device.charge_dma(src.nbytes)
        return src.copy()

    def buffer(self, handle: int) -> np.ndarray:
        """Direct (simulator-side) view of a buffer, for kernel execution."""
        return self._resolve(handle)

    def adopt_alias(self, array: np.ndarray) -> int:
        """Map an *existing* device allocation into this context (P2P
        import).  The bytes are not copied — both contexts now name the
        same storage, the GPU analog of trusted shared memory.  Only the
        HAL may call this, after the SPM approved the sharing."""
        self._require_active()
        handle = self._next_handle
        self._next_handle += 1
        self._buffers[handle] = array
        return handle

    # -- execution --------------------------------------------------------
    def launch(self, kernel_name: str, handles: List[int], **params) -> float:
        """Enqueue a kernel on this context's stream; returns its completion
        time on the device timeline (the caller's clock does not move).

        ``sim_scale`` (default 1.0) multiplies the kernel's modelled flops
        without changing its functional effect: workloads compute on small
        arrays but are *timed* at the paper's problem sizes (see DESIGN.md).
        """
        self._require_active()
        sim_scale = float(params.pop("sim_scale", 1.0))
        kernel = self._device.kernel(kernel_name)
        arrays = [self._resolve(h) for h in handles]
        kernel.fn(*arrays, **params)  # functional effect happens eagerly
        duration = self._device.kernel_duration_us(kernel, arrays, params, sim_scale)
        return self.stream.submit(duration)

    def synchronize(self) -> float:
        """Join the stream: the caller waits for all enqueued kernels."""
        return self.stream.join()

    def scrub(self) -> None:
        """Zero every buffer in place (the A3 device clear)."""
        for array in self._buffers.values():
            array[...] = 0

    def destroy(self) -> None:
        """Release everything this tenant holds on the device."""
        for handle in list(self._buffers):
            self.free(handle)
        self.active = False
        self._device.drop_context(self.context_id)

    # -- helpers ---------------------------------------------------------
    def _resolve(self, handle: int) -> np.ndarray:
        try:
            return self._buffers[handle]
        except KeyError:
            raise GpuError(
                f"context {self.context_id} of {self._device.name}: bad handle {handle} "
                f"(cross-context access is rejected by GPU VA isolation)"
            ) from None

    def _require_active(self) -> None:
        if not self.active:
            raise GpuError(f"context {self.context_id} destroyed")


class GpuDevice(Device):
    """The discrete GPU: memory, contexts, kernel timing with sharing."""

    device_type = "gpu"

    def __init__(
        self,
        name: str,
        clock: SimClock,
        costs: CostModel,
        *,
        mmio: MMIORegion,
        irq: int,
        vendor=None,
        memory_bytes: int = 8 << 30,
    ) -> None:
        super().__init__(name, mmio=mmio, irq=irq, vendor=vendor, memory_bytes=memory_bytes)
        self.clock = clock
        self.costs = costs
        self.bytes_in_use = 0
        self.sharing_mode = SHARING_MPS
        self.mig_slices = 4
        self._contexts: Dict[int, GpuContext] = {}
        self._next_context = 1
        self.kernels_launched = 0

    # -- sharing mode -------------------------------------------------------
    def set_sharing_mode(self, mode: str, *, mig_slices: int = 4) -> None:
        """Switch between MPS (dynamic) and MIG (static slice) sharing.

        MIG partitions the SMs into ``mig_slices`` equal instances; each
        context is pinned to one slice.  Switching modes with live
        contexts is rejected (real MIG reconfiguration requires draining
        the GPU)."""
        if mode not in (SHARING_MPS, SHARING_MIG):
            raise GpuError(f"unknown sharing mode {mode!r}")
        if self.active_contexts():
            raise GpuError("cannot change sharing mode with active contexts")
        if mode == SHARING_MIG and mig_slices < 1:
            raise GpuError(f"bad MIG slice count {mig_slices}")
        self.sharing_mode = mode
        self.mig_slices = mig_slices

    # -- contexts ---------------------------------------------------------
    def create_context(self, owner: str, quota_bytes: Optional[int] = None) -> GpuContext:
        if self.sharing_mode == SHARING_MIG and self.active_contexts() >= self.mig_slices:
            raise GpuError(
                f"GPU {self.name}: all {self.mig_slices} MIG instances occupied"
            )
        ctx = GpuContext(self, self._next_context, owner, quota_bytes=quota_bytes)
        self._contexts[self._next_context] = ctx
        self._next_context += 1
        return ctx

    def drop_context(self, context_id: int) -> None:
        self._contexts.pop(context_id, None)

    def active_contexts(self) -> int:
        return sum(1 for c in self._contexts.values() if c.active)

    # -- timing -------------------------------------------------------------
    def kernel(self, name: str) -> GpuKernel:
        try:
            return KERNEL_REGISTRY[name]
        except KeyError:
            raise GpuError(f"no kernel named {name!r} loaded on {self.name}") from None

    def kernel_duration_us(self, kernel: GpuKernel, arrays, params, sim_scale: float = 1.0) -> float:
        """Launch overhead + flops over this tenant's effective share.

        MPS: the share depends on how many tenants are active (dynamic
        sharing with contention).  MIG: the share is a fixed 1/slices of
        the machine regardless of the other tenants (static isolation).
        """
        self.kernels_launched += 1
        if self.sharing_mode == SHARING_MIG:
            share = 1.0 / self.mig_slices
        else:
            active = max(1, self.active_contexts())
            share = utilization(active) / active
        effective = self.costs.gpu_flops_per_us * share
        flops = float(kernel.flops(*arrays, **params)) * sim_scale
        return self.costs.gpu_kernel_launch_us + flops / effective

    def charge_dma(self, nbytes: int) -> None:
        self.clock.advance(self.costs.copy_cost_us(nbytes, per_kib=self.costs.pcie_dma_us_per_kib))

    # -- lifecycle ----------------------------------------------------------
    def clear_state(self) -> int:
        """Scrub: destroy all contexts and report bytes cleared (A3)."""
        cleared = self.bytes_in_use
        for ctx in list(self._contexts.values()):
            ctx.scrub()
            ctx.destroy()
        self.bytes_in_use = 0
        super().clear_state()
        return cleared
