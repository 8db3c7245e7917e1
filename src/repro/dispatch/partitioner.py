"""Automatic partitioning of a monolithic enclave.

The paper's tool rewrites a monolithic enclave so that "all CUDA/VTA calls
within a monolithic enclave [become] mEnclave RPC" (section V-B), driven by
the mEnclave annotations in the manifest.  Our analog: a monolithic enclave
program is a callable written against a runtime interface (``rt.cudaMalloc``,
``rt.vtaRun``, ``rt.cpu_compute``); the partitioner creates the per-device
mEnclaves, opens sRPC channels, and hands the program a
:class:`PartitionedRuntime` that transparently routes each call — no
application-code changes, exactly the property the paper claims.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.dispatch.application import Application, EnclaveHandle
from repro.enclave.images import CpuImage, CudaImage, NpuImage
from repro.enclave.manifest import Manifest
from repro.enclave.models import CUDA_MECALLS, NPU_MECALLS


class PartitionedRuntime:
    """The rewritten program's view: device calls become mEnclave RPC."""

    def __init__(
        self,
        app: Application,
        cpu_handle: EnclaveHandle,
        gpu_channel=None,
        npu_channel=None,
    ) -> None:
        self._app = app
        self._cpu = cpu_handle
        self._gpu = gpu_channel
        self._npu = npu_channel

    # -- CUDA calls (converted to sRPC into the CUDA mEnclave) ----------
    def cudaMalloc(self, shape, dtype="float32") -> int:
        return self._gpu_required().call("cudaMalloc", tuple(shape), dtype=dtype)

    def cudaFree(self, handle: int) -> None:
        self._gpu_required().call("cudaFree", handle)

    def cudaMemcpyH2D(self, handle: int, host: np.ndarray) -> None:
        self._gpu_required().call("cudaMemcpyH2D", handle, np.asarray(host))

    def cudaMemcpyD2H(self, handle: int) -> np.ndarray:
        return self._gpu_required().call("cudaMemcpyD2H", handle)

    def cudaLaunchKernel(self, kernel: str, handles, **params) -> None:
        self._gpu_required().call("cudaLaunchKernel", kernel, list(handles), **params)

    def cudaDeviceSynchronize(self) -> None:
        self._gpu_required().call("cudaDeviceSynchronize")

    # -- VTA calls (converted to sRPC into the NPU mEnclave) ---------------
    def vtaWriteTensor(self, name: str, array: np.ndarray) -> None:
        self._npu_required().call("vtaWriteTensor", name, np.asarray(array))

    def vtaReadTensor(self, name: str) -> np.ndarray:
        return self._npu_required().call("vtaReadTensor", name)

    def vtaRun(self, program: str) -> None:
        self._npu_required().call("vtaRun", program)

    def vtaSynchronize(self) -> None:
        self._npu_required().call("vtaSynchronize")

    # -- CPU-side work stays in the calling mEnclave ------------------------
    def cpu_call(self, fn: str, *args: Any, **kwargs: Any) -> Any:
        return self._cpu.ecall(fn, *args, **kwargs)

    def cpu_compute(self, flops: float) -> None:
        """Charge anonymous CPU-side work (data prep, losses, optimizers)."""
        platform = self._cpu.mos.platform
        platform.clock.advance(flops / platform.costs.cpu_flops_per_us)

    @property
    def cpu_handle(self) -> EnclaveHandle:
        return self._cpu

    @property
    def gpu_channel(self):
        """The CUDA mEnclave's sRPC channel, for callers that stream raw
        records on their own stream ids (e.g. LLM token streaming) instead
        of going through the cuda* wrappers.  None if no CUDA mEnclave was
        partitioned."""
        return self._gpu

    def debug_gpu_buffer(self, handle: int) -> np.ndarray:
        """Simulator-only backdoor: a direct view of a GPU buffer, with no
        timing charge.  Used by harnesses that model communication timing
        explicitly (e.g. the figure 11b all-reduce modes); never part of
        the modelled system."""
        context = self._gpu_required().callee.enclave.state["context"]
        return context.buffer(handle)

    def _gpu_required(self):
        if self._gpu is None:
            raise RuntimeError("program uses CUDA but no CUDA mEnclave was partitioned")
        return self._gpu

    def _npu_required(self):
        if self._npu is None:
            raise RuntimeError("program uses VTA but no NPU mEnclave was partitioned")
        return self._npu

    def close(self) -> None:
        for channel in (self._gpu, self._npu):
            if channel is not None:
                channel.close()


class AutoPartitioner:
    """Builds the mEnclaves + channels a monolithic program needs."""

    def __init__(self, app: Application) -> None:
        self._app = app

    def partition(
        self,
        cpu_image: CpuImage,
        *,
        cuda_image: Optional[CudaImage] = None,
        npu_image: Optional[NpuImage] = None,
        gpu_device_name: Optional[str] = None,
        memory_bytes: int = 1 << 30,
    ) -> PartitionedRuntime:
        """Create the CPU mEnclave plus one accelerator mEnclave per
        annotated image, and wire sRPC channels between them."""
        from repro.enclave.manifest import MECallSpec

        cpu_manifest = Manifest(
            device_type="cpu",
            images={f"{cpu_image.name}.so": cpu_image.digest()},
            mecalls=tuple(MECallSpec(n) for n in sorted(cpu_image.functions)),
            memory_bytes=memory_bytes,
        )
        cpu_handle = self._app.create_enclave(cpu_manifest, cpu_image, f"{cpu_image.name}.so")

        gpu_channel = None
        if cuda_image is not None:
            gpu_manifest = Manifest(
                device_type="gpu",
                images={f"{cuda_image.name}.cubin": cuda_image.digest()},
                mecalls=CUDA_MECALLS,
                memory_bytes=memory_bytes,
            )
            gpu_handle = self._app.create_enclave(
                gpu_manifest, cuda_image, f"{cuda_image.name}.cubin",
                device_name=gpu_device_name,
            )
            gpu_channel = self._app.open_channel(cpu_handle, gpu_handle)

        npu_channel = None
        if npu_image is not None:
            npu_manifest = Manifest(
                device_type="npu",
                images={f"{npu_image.name}.vta": npu_image.digest()},
                mecalls=NPU_MECALLS,
                memory_bytes=min(memory_bytes, 128 << 20),
            )
            npu_handle = self._app.create_enclave(npu_manifest, npu_image, f"{npu_image.name}.vta")
            npu_channel = self._app.open_channel(cpu_handle, npu_handle)

        return PartitionedRuntime(self._app, cpu_handle, gpu_channel, npu_channel)
