"""The CRONUS system: the full MicroTEE stack, assembled.

Boot order mirrors paper section V-A: the secure monitor validates the
device tree handed over by the untrusted OS and locks down isolation
hardware; the SPM creates one partition per device; each partition loads
its mOS (measured by the monitor) at system startup so mEnclaves never
wait for an mOS boot; the Enclave Dispatcher in the normal world routes
application requests to partitions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.dispatch.application import Application
from repro.dispatch.dispatcher import EnclaveDispatcher
from repro.dispatch.partitioner import AutoPartitioner, PartitionedRuntime
from repro.enclave.images import CpuImage, CudaImage, NpuImage
from repro.mos.microos import MicroOS
from repro.secure.monitor import AttestationReport, SecureMonitor
from repro.secure.spm import SPM, RecoveryReport
from repro.systems.base import System, SystemError
from repro.systems.testbed import TestbedConfig

# The mOS images shipped by the normal OS.  Content stands in for the real
# binaries (optee core / nouveau+gdev / VTA fsim driver, table III).
_MOS_IMAGES = {
    "cpu": b"optee-core mOS image v3.19 [shim core + CPU HAL]",
    "gpu": b"nouveau+gdev mOS image [shim core + GPU HAL, Turing]",
    "npu": b"vta-fsim mOS image [shim core + NPU HAL]",
}


class CronusSystem(System):
    """CRONUS: per-device S-EL2 partitions with sRPC between mEnclaves."""

    name = "cronus"
    supports_npu = True
    supports_spatial_sharing = True
    fault_isolated = True
    security_isolated = True

    def __init__(
        self,
        testbed: Optional[TestbedConfig] = None,
        *,
        costs=None,
        rpc_mode: str = "srpc",
        trace: bool = False,
        obs: bool = False,
    ) -> None:
        super().__init__(testbed, costs=costs, trace=trace, obs=obs)
        self.rpc_mode = rpc_mode
        # Normal-world boot: hand the DT to the monitor, then bring up SPM
        # and one mOS per secure device.
        self.monitor = SecureMonitor(self.platform)
        self.monitor.boot(self.platform.device_tree)
        self.spm = SPM(self.platform, self.monitor)
        self.dispatcher = EnclaveDispatcher()
        self.moses: Dict[str, MicroOS] = {}
        for device in self.platform.devices():
            partition = self.spm.create_partition(f"part-{device.name}", device)
            image = _MOS_IMAGES.get(device.device_type, b"generic mOS image")
            mos = MicroOS(
                name=f"mos-{device.name}",
                image=image,
                partition=partition,
                platform=self.platform,
                spm=self.spm,
                monitor=self.monitor,
            )
            self.moses[device.name] = mos
            self.dispatcher.register(mos)
            self.platform.clock.advance(self.platform.costs.mos_reload_us)
        self._apps: Dict[str, Application] = {}

    # -- applications ------------------------------------------------------
    def application(self, name: str) -> Application:
        """Create (or return) a named application in the normal world."""
        if name not in self._apps:
            self._apps[name] = Application(
                name, self.dispatcher, self.spm, rpc_mode=self.rpc_mode
            )
        return self._apps[name]

    def runtime(
        self,
        *,
        cuda_kernels: Tuple[str, ...] = (),
        npu_programs: Optional[Dict[str, object]] = None,
        gpu_name: Optional[str] = None,
        owner: str = "app",
    ) -> PartitionedRuntime:
        """Auto-partition a heterogeneous task into mEnclaves + sRPC."""
        app = self.application(owner)
        cpu_image = CpuImage(
            name=f"{owner}-cpu",
            functions={"noop": lambda state: None},
        )
        cuda_image = (
            CudaImage(name=f"{owner}-cuda", kernels=tuple(cuda_kernels))
            if cuda_kernels
            else None
        )
        npu_image = (
            NpuImage(name=f"{owner}-vta", programs=dict(npu_programs))
            if npu_programs
            else None
        )
        return AutoPartitioner(app).partition(
            cpu_image,
            cuda_image=cuda_image,
            npu_image=npu_image,
            gpu_device_name=gpu_name,
        )

    def release(self, rt: PartitionedRuntime) -> None:
        rt.close()

    # -- attestation ----------------------------------------------------------
    def attest_platform(self) -> AttestationReport:
        """Produce the full report a client verifies before sending data."""
        menclave_hashes: Dict[str, str] = {}
        accelerator_keys: Dict[str, PublicKey] = {}
        for mos in self.moses.values():
            menclave_hashes.update(mos.manager.measurements())
            vendor_cert = mos.partition.device.vendor_cert
            if vendor_cert is not None and mos.device_type != "cpu":
                anchor = self.platform.vendors[vendor_cert.issuer_name].public
                accelerator_keys[mos.partition.device.name] = mos.hal.attest_device(anchor)
        return self.monitor.attest(menclave_hashes, accelerator_keys)

    # -- failure handling ----------------------------------------------------------
    def inject_device_failure(self, device_name: str) -> float:
        """Panic the partition managing ``device_name``; only it restarts."""
        report = self.fail_partition(device_name)
        return report.total_us

    def stats(self) -> dict:
        """Base device counters plus partition/enclave bookkeeping."""
        out = super().stats()
        out["partitions"] = {
            mos.partition.name: {
                "state": mos.partition.state.value,
                "restarts": mos.partition.restarts,
                "enclaves": len(mos.manager.enclaves()),
                "reserved_bytes": mos.manager.reserved_bytes,
            }
            for mos in self.moses.values()
        }
        return out

    def fail_partition(self, device_name: str, *, background: bool = False) -> RecoveryReport:
        mos = self.moses.get(device_name)
        if mos is None:
            raise SystemError(f"no partition manages device {device_name!r}")
        mos.manager.destroy_all()
        return self.spm.report_panic(mos.partition.name, background=background)

    def update_mos(self, device_name: str, new_image: bytes) -> RecoveryReport:
        """Proactive mOS update (failure circumstance 1 of section IV-D).

        The partition restarts through the same proceed-trap path as a
        crash — running enclaves are torn down, shared memory invalidated —
        and the new image is measured, so clients that pinned the previous
        mOS version will (correctly) fail attestation until they audit the
        new one (section III-B: a service trusts only its used mOS version).
        """
        mos = self.moses.get(device_name)
        if mos is None:
            raise SystemError(f"no partition manages device {device_name!r}")
        mos.manager.destroy_all()
        report = self.spm.request_restart(mos.partition.name)
        mos.image = new_image
        mos.measurement_hex = self.monitor.measure_mos(mos.name, new_image)
        return report
