"""System interface and the three baseline systems.

Every system provides ``runtime(...)`` returning an object with the common
heterogeneous interface (CUDA calls, VTA calls, ``cpu_compute``).  Workloads
are written once against that interface; benchmarks compare the simulated
clock across systems, which is exactly how the paper's figures compare
CRONUS against Linux (native), monolithic TrustZone and HIX-TrustZone.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.accel.gpu import GpuDevice
from repro.accel.npu import NpuDevice
from repro.crypto.dh import DiffieHellman
from repro.crypto.hashing import measure_many
from repro.enclave.images import CudaImage
from repro.enclave.manifest import Manifest
from repro.enclave.menclave import MEnclave, make_eid
from repro.enclave.models import CUDA_MECALLS, CudaExecutionModel
from repro.hw.platform import Platform
from repro.rpc.baselines import EncryptedRpcChannel, UntrustedTransport
from repro.rpc.channel import EnclaveEndpoint
from repro.systems.testbed import TestbedConfig, make_platform


class SystemError(Exception):
    """System-level misuse (unsupported device, sharing violation)."""


class DirectHal:
    """A HAL stand-in for baselines that run without S-EL2 partitions:
    exposes the devices directly, as a monolithic secure OS would."""

    def __init__(self, platform: Platform) -> None:
        self._platform = platform

    @property
    def cpu_device(self):
        return self._platform.device("cpu0")

    @property
    def npu_device(self) -> NpuDevice:
        return self._platform.device("npu0")

    def gpu(self, name: str) -> GpuDevice:
        return self._platform.device(name)

    def create_gpu_context(self, owner: str, *, gpu_name: str = "gpu0"):
        return self.gpu(gpu_name).create_context(owner)


class DirectRuntime:
    """Direct device access with a fixed per-call overhead.

    ``per_call_us = 0`` models native Linux; a small constant models the
    monolithic TrustZone OS, whose internal RPC runs over trusted shared
    memory without cross-partition switches (paper section II-C).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        per_call_us: float = 0.0,
        gpu_name: str = "gpu0",
        owner: str = "direct",
        npu_programs: Optional[Dict[str, object]] = None,
    ) -> None:
        self._platform = platform
        self._per_call_us = per_call_us
        self._hal = DirectHal(platform)
        self._gpu_ctx = None
        self._gpu_name = gpu_name
        self._owner = owner
        self._npu_programs = dict(npu_programs or {})

    def _charge(self) -> None:
        if self._per_call_us:
            self._platform.clock.advance(self._per_call_us)

    def _gpu(self):
        if self._gpu_ctx is None:
            self._gpu_ctx = self._hal.create_gpu_context(self._owner, gpu_name=self._gpu_name)
        return self._gpu_ctx

    # -- CUDA -----------------------------------------------------------
    def cudaMalloc(self, shape, dtype="float32") -> int:
        self._charge()
        return self._gpu().alloc(tuple(shape), dtype=np.dtype(dtype))

    def cudaFree(self, handle: int) -> None:
        self._charge()
        self._gpu().free(handle)

    def cudaMemcpyH2D(self, handle: int, host) -> None:
        self._charge()
        self._gpu().memcpy_h2d(handle, np.asarray(host))

    def cudaMemcpyD2H(self, handle: int):
        self._charge()
        return self._gpu().memcpy_d2h(handle)

    def cudaLaunchKernel(self, kernel: str, handles, **params) -> None:
        self._charge()
        self._gpu().launch(kernel, list(handles), **params)

    def cudaDeviceSynchronize(self) -> None:
        self._charge()
        self._gpu().synchronize()

    # -- VTA ----------------------------------------------------------------
    def vtaWriteTensor(self, name: str, array) -> None:
        self._charge()
        self._hal.npu_device.write_tensor(name, np.asarray(array))

    def vtaReadTensor(self, name: str):
        self._charge()
        return self._hal.npu_device.read_tensor(name)

    def vtaRun(self, program_name: str) -> None:
        self._charge()
        try:
            program = self._npu_programs[program_name]
        except KeyError:
            raise SystemError(f"no NPU program named {program_name!r} loaded") from None
        self._hal.npu_device.run(program)

    def vtaSynchronize(self) -> None:
        self._charge()
        self._hal.npu_device.synchronize()

    # -- CPU ------------------------------------------------------------------
    def cpu_compute(self, flops: float) -> None:
        self._platform.clock.advance(flops / self._platform.costs.cpu_flops_per_us)

    def debug_gpu_buffer(self, handle: int):
        """Simulator-only backdoor (see PartitionedRuntime.debug_gpu_buffer)."""
        return self._gpu().buffer(handle)

    def close(self) -> None:
        if self._gpu_ctx is not None:
            self._gpu_ctx.destroy()
            self._gpu_ctx = None


class System:
    """Base class: owns the platform and measures simulated time."""

    name = "abstract"
    supports_npu = True
    supports_spatial_sharing = True
    fault_isolated = False
    security_isolated = False

    def __init__(
        self,
        testbed: Optional[TestbedConfig] = None,
        *,
        costs=None,
        trace: bool = False,
        obs: bool = False,
    ) -> None:
        self.platform = make_platform(testbed, costs=costs)
        self.platform.tracer.enabled = trace
        # ``obs=True`` turns on causal spans and the typed metrics registry
        # (repro.obs).  Neither advances the simulated clock.
        self.platform.obs.enabled = obs
        self.platform.metrics.enabled = obs

    @property
    def clock(self):
        return self.platform.clock

    def runtime(self, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def release(self, rt) -> None:
        rt.close()

    def inject_device_failure(self, device_name: str) -> float:
        """Crash the stack managing ``device_name``; returns downtime (us).

        Baselines have no isolated recovery path: clearing accelerator
        state requires a cold machine reboot (table I footnotes).
        """
        start = self.clock.now
        for device in self.platform.devices():
            device.clear_state()
        self.clock.advance(self.platform.costs.machine_reboot_us)
        return self.clock.now - start

    def stats(self) -> dict:
        """Introspection counters for operators and tests."""
        out = {"system": self.name, "sim_time_us": self.clock.now, "devices": {}}
        for device in self.platform.devices():
            entry = {"type": device.device_type}
            if hasattr(device, "kernels_launched"):
                entry["kernels_launched"] = device.kernels_launched
                entry["bytes_in_use"] = device.bytes_in_use
                entry["active_contexts"] = device.active_contexts()
            if hasattr(device, "programs_run"):
                entry["programs_run"] = device.programs_run
            if hasattr(device, "calls_executed"):
                entry["calls_executed"] = device.calls_executed
            out["devices"][device.name] = entry
        return out


class BaselineSystem(System):
    """Shared plumbing for the non-CRONUS systems."""


class NativeLinux(BaselineSystem):
    """Unprotected execution: the normalization baseline of figure 7."""

    name = "linux"
    fault_isolated = False
    security_isolated = False

    def runtime(
        self,
        *,
        cuda_kernels: Tuple[str, ...] = (),
        npu_programs: Optional[Dict[str, object]] = None,
        gpu_name: str = "gpu0",
        owner: str = "app",
    ):
        return DirectRuntime(
            self.platform, per_call_us=0.0, gpu_name=gpu_name, owner=owner,
            npu_programs=npu_programs,
        )


class MonolithicTrustZone(BaselineSystem):
    """All device drivers inside one monolithic secure OS ("TrustZone").

    Fast (internal calls over trusted shared memory) and spatially shared,
    but a single fault anywhere takes down the whole secure world, and
    every tenant must trust every driver (violating R3).
    """

    name = "trustzone"
    fault_isolated = False
    security_isolated = False

    def runtime(
        self,
        *,
        cuda_kernels: Tuple[str, ...] = (),
        npu_programs: Optional[Dict[str, object]] = None,
        gpu_name: str = "gpu0",
        owner: str = "app",
    ):
        costs = self.platform.costs
        # Entering the secure world once per session.
        self.clock.advance(2 * costs.world_switch_us)
        return DirectRuntime(
            self.platform,
            per_call_us=costs.enclave_entry_us,
            gpu_name=gpu_name,
            owner=owner,
            npu_programs=npu_programs,
        )


class HixRuntime:
    """HIX-TrustZone: CUDA calls via encrypted lock-step RPC into the
    dedicated GPU enclave, plus one extra RPC per hardware control message
    (the behaviour section VI-B attributes HIX's slowdown to)."""

    _CONTROL_RPCS = {
        "cudaLaunchKernel": 2,
        "cudaMemcpyH2D": 2,
        "cudaMemcpyD2H": 2,
        "cudaMalloc": 1,
        "cudaFree": 1,
        "cudaDeviceSynchronize": 1,
    }
    _CONTROL_MSG_BYTES = 64

    def __init__(self, system: "HixTrustZone", channel: EncryptedRpcChannel) -> None:
        self._system = system
        self._channel = channel
        self._platform = system.platform

    def _call(self, fn: str, *args, **kwargs):
        costs = self._platform.costs
        for _ in range(self._CONTROL_RPCS.get(fn, 1)):
            self._platform.clock.advance(
                costs.encrypted_rpc_overhead_us(self._CONTROL_MSG_BYTES)
            )
        return self._channel.call(fn, *args, **kwargs)

    def cudaMalloc(self, shape, dtype="float32") -> int:
        return self._call("cudaMalloc", tuple(shape), dtype=dtype)

    def cudaFree(self, handle: int) -> None:
        self._call("cudaFree", handle)

    def cudaMemcpyH2D(self, handle: int, host) -> None:
        self._call("cudaMemcpyH2D", handle, np.asarray(host))

    def cudaMemcpyD2H(self, handle: int):
        return self._call("cudaMemcpyD2H", handle)

    def cudaLaunchKernel(self, kernel: str, handles, **params) -> None:
        self._call("cudaLaunchKernel", kernel, list(handles), **params)

    def cudaDeviceSynchronize(self) -> None:
        self._call("cudaDeviceSynchronize")

    def cpu_compute(self, flops: float) -> None:
        self._platform.clock.advance(flops / self._platform.costs.cpu_flops_per_us)

    def close(self) -> None:
        self._channel.close()
        self._channel.callee.enclave.destroy()
        self._system.release_gpu()


class _BaselineHost:
    """Minimal mOS stand-in for baseline EnclaveEndpoints."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.partition = None


class HixTrustZone(BaselineSystem):
    """HIX [54] emulated on TrustZone (paper section VI-A): the GPU driver
    runs in a GPU enclave with *dedicated* device access; application
    enclaves reach it only through encrypted RPC over untrusted memory."""

    name = "hix-trustzone"
    supports_npu = False  # "HIX supports only GPU"
    supports_spatial_sharing = False  # dedicated access, temporal sharing
    fault_isolated = False
    security_isolated = False

    def __init__(
        self, testbed=None, *, costs=None, trace: bool = False, obs: bool = False
    ) -> None:
        super().__init__(testbed, costs=costs, trace=trace, obs=obs)
        self._gpu_busy = False
        self._had_tenant = False
        self.transport = UntrustedTransport()
        self._next_local = 1

    def runtime(
        self,
        *,
        cuda_kernels: Tuple[str, ...] = (),
        npu_programs: Optional[Dict[str, object]] = None,
        gpu_name: str = "gpu0",
        owner: str = "app",
    ):
        if self._gpu_busy:
            raise SystemError(
                "HIX grants the GPU enclave dedicated access: "
                "another tenant must wait (temporal sharing only)"
            )
        if self._had_tenant:
            # Switching tenants on a dedicated-access design cold-reboots
            # the accelerator to clear its state (table I remark 1).
            self.platform.device(gpu_name).clear_state()
            self.clock.advance(self.platform.costs.accelerator_reset_us)
        self._gpu_busy = True
        self._had_tenant = True
        image = CudaImage(name=f"hix-{self._next_local}", kernels=tuple(cuda_kernels))
        manifest = Manifest(
            device_type="gpu",
            images={f"{image.name}.cubin": image.digest()},
            mecalls=CUDA_MECALLS,
        )
        model = CudaExecutionModel()

        class _Hal:
            def __init__(self, hal: DirectHal, gpu_name: str) -> None:
                self._hal, self._gpu_name = hal, gpu_name

            def create_gpu_context(self, owner: str, quota_bytes=None):
                return self._hal.create_gpu_context(owner, gpu_name=self._gpu_name)

        state = model.me_create(image, _Hal(DirectHal(self.platform), gpu_name))
        creator = DiffieHellman(f"hix-app-{self._next_local}".encode())
        enclave = MEnclave(
            eid=make_eid(1, self._next_local),
            manifest=manifest,
            model=model,
            state=state,
            measurement=measure_many([manifest.serialize(), image.blob()]),
            creator_dh_public=creator.public,
            dh_seed=f"hix-gpu-{self._next_local}".encode(),
        )
        self._next_local += 1
        secret = creator.shared_secret(enclave.dh_public)
        host = _BaselineHost(self.platform)
        channel = EncryptedRpcChannel(
            EnclaveEndpoint(enclave=None, mos=host),
            EnclaveEndpoint(enclave=enclave, mos=host),
            secret,
            self.transport,
        )
        return HixRuntime(self, channel)

    def release_gpu(self) -> None:
        self._gpu_busy = False
