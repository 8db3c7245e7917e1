"""Assembled systems: cross-system equivalence, overheads, requirements."""

import inspect

import numpy as np
import pytest

import repro.systems
from repro.systems import (
    BaselineSystem,
    CronusSystem,
    HixTrustZone,
    MonolithicTrustZone,
    NativeLinux,
    System,
    SystemError,
    TestbedConfig,
)
from repro.workloads.rodinia import RODINIA, all_kernels

ALL_SYSTEMS = [NativeLinux, MonolithicTrustZone, HixTrustZone, CronusSystem]


def _run_gemm(system):
    rt = system.runtime(cuda_kernels=("matmul",), owner="gemm")
    before = system.clock.now
    result = RODINIA["gemm"].run(rt)
    elapsed = system.clock.now - before
    system.release(rt)
    return result, elapsed


class TestCrossSystemEquivalence:
    def test_identical_results_on_all_systems(self):
        """All four systems execute the same kernels: results must match
        bit-for-bit (TEE protection must not change computation)."""
        results = [_run_gemm(cls())[0] for cls in ALL_SYSTEMS]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_time_ordering(self):
        """linux <= trustzone < cronus < hix on a GPU workload."""
        times = {cls.name: _run_gemm(cls())[1] for cls in ALL_SYSTEMS}
        assert times["linux"] <= times["trustzone"]
        assert times["trustzone"] < times["hix-trustzone"]
        assert times["cronus"] < times["hix-trustzone"]

    def test_cronus_overhead_within_paper_bound(self):
        """R1 claim: CRONUS adds < 7.1% over native on compute workloads."""
        _, native = _run_gemm(NativeLinux())
        _, cronus = _run_gemm(CronusSystem())
        overhead = (cronus - native) / native
        assert overhead < 0.071, f"CRONUS overhead {overhead:.1%} exceeds 7.1%"


class TestRuntimeOptions:
    """Every system's ``runtime`` takes exactly the options its callers
    pass, so a misspelt or removed option fails loudly."""

    RUNTIME_OPTIONS = ["cuda_kernels", "npu_programs", "gpu_name", "owner"]

    def test_every_exported_system_is_covered(self):
        exported = {
            obj for obj in vars(repro.systems).values()
            if isinstance(obj, type) and issubclass(obj, System)
        }
        assert exported - {System, BaselineSystem} == set(ALL_SYSTEMS)

    @pytest.mark.parametrize("system_cls", ALL_SYSTEMS, ids=lambda cls: cls.__name__)
    def test_runtime_signature(self, system_cls):
        params = list(inspect.signature(system_cls.runtime).parameters.values())[1:]
        assert [p.name for p in params] == self.RUNTIME_OPTIONS
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params)

    @pytest.mark.parametrize("system_cls", ALL_SYSTEMS, ids=lambda cls: cls.__name__)
    def test_misspelt_option_raises(self, system_cls):
        with pytest.raises(TypeError, match="gpu_nmae"):
            system_cls().runtime(gpu_nmae="gpu1")


class TestRequirementProbes:
    def test_r1_cronus_supports_all_device_types(self):
        """R1: general accelerators — CPU, GPU and NPU partitions exist."""
        system = CronusSystem()
        types = {mos.device_type for mos in system.moses.values()}
        assert types == {"cpu", "gpu", "npu"}

    def test_r1_hix_gpu_only(self):
        assert not HixTrustZone.supports_npu

    def test_r2_cronus_spatial_sharing(self):
        """R2: two tenants run on the same GPU concurrently."""
        system = CronusSystem()
        rt1 = system.runtime(cuda_kernels=("vecadd",), owner="tenant-a")
        rt2 = system.runtime(cuda_kernels=("vecadd",), owner="tenant-b")
        gpu = system.platform.device("gpu0")
        assert gpu.active_contexts() == 2
        system.release(rt1)
        system.release(rt2)

    def test_r2_hix_dedicated_access(self):
        """HIX grants dedicated access: a second tenant is refused."""
        system = HixTrustZone()
        rt1 = system.runtime(cuda_kernels=("vecadd",))
        with pytest.raises(SystemError, match="dedicated"):
            system.runtime(cuda_kernels=("vecadd",))
        rt1.close()
        rt2 = system.runtime(cuda_kernels=("vecadd",))  # temporal sharing
        rt2.close()

    def test_r31_cronus_fault_isolation(self):
        """R3.1: a GPU partition failure leaves the NPU partition working."""
        system = CronusSystem()
        downtime = system.inject_device_failure("gpu0")
        assert downtime < 1_000_000  # sub-second recovery
        from repro.secure.partition import PartitionState

        assert system.moses["npu0"].partition.state is PartitionState.READY
        # The NPU still computes after the GPU crash.
        from repro.workloads.vta_bench import BENCH_PROGRAMS, run_alu

        rt = system.runtime(npu_programs=BENCH_PROGRAMS, owner="post-crash")
        run_alu(rt, size=8, iters=1)
        system.release(rt)

    def test_r31_baselines_need_reboot(self):
        for cls in (NativeLinux, MonolithicTrustZone, HixTrustZone):
            system = cls()
            downtime = system.inject_device_failure("gpu0")
            assert downtime >= system.platform.costs.machine_reboot_us

    def test_r32_flags(self):
        assert CronusSystem.fault_isolated and CronusSystem.security_isolated
        assert not MonolithicTrustZone.fault_isolated
        assert not MonolithicTrustZone.security_isolated


class TestCronusAssembly:
    def test_one_partition_per_device(self, cronus):
        devices = {m.partition.device.name for m in cronus.moses.values()}
        assert devices == {"cpu0", "gpu0", "npu0"}
        partitions = {m.partition.partition_id for m in cronus.moses.values()}
        assert len(partitions) == 3

    def test_mos_measured_at_boot(self, cronus):
        measurements = cronus.monitor.mos_measurements()
        assert set(measurements) == {"mos-cpu0", "mos-gpu0", "mos-npu0"}

    def test_platform_attestation_end_to_end(self, cronus):
        from repro.secure.monitor import verify_attestation_report

        report = cronus.attest_platform()
        vendor_anchors = {
            name: ca.public for name, ca in cronus.platform.vendors.items()
        }
        device_certs = {
            d.name: d.vendor_cert
            for d in cronus.platform.devices()
            if d.vendor_cert is not None and d.device_type != "cpu"
        }
        verify_attestation_report(
            report,
            cronus.platform.attestation_service.public,
            vendor_anchors,
            device_certs,
        )
        assert "mos-gpu0" in report.mos_hashes

    def test_dispatcher_resources_view(self, cronus):
        resources = cronus.dispatcher.resources()
        assert resources["mos-gpu0"]["device_type"] == "gpu"
        assert resources["mos-gpu0"]["state"] == "ready"

    def test_dispatcher_picks_least_loaded_gpu(self, cronus2gpu):
        app = cronus2gpu.application("spread")
        from repro.enclave.images import CudaImage
        from repro.enclave.manifest import Manifest
        from repro.enclave.models import CUDA_MECALLS

        image = CudaImage(name="x", kernels=("vecadd",))
        manifest = Manifest(
            device_type="gpu", images={"x.cubin": image.digest()},
            mecalls=CUDA_MECALLS, memory_bytes=1 << 30,
        )
        handle1 = app.create_enclave(manifest, image, "x.cubin")
        handle2 = app.create_enclave(manifest, image, "x.cubin")
        assert handle1.mos is not handle2.mos  # spread across GPUs

    def test_unknown_device_failure_rejected(self, cronus):
        with pytest.raises(SystemError):
            cronus.fail_partition("ghost0")

    def test_application_shutdown_cleans_up(self, cronus):
        from repro.enclave.images import CpuImage
        from repro.enclave.manifest import Manifest, MECallSpec

        app = cronus.application("cleanup")
        image = CpuImage(name="c", functions={"f": lambda s: None})
        manifest = Manifest(
            device_type="cpu", images={"c.so": image.digest()},
            mecalls=(MECallSpec("f"),),
        )
        app.create_enclave(manifest, image, "c.so")
        app.shutdown()
        assert app.handles() == {}


class TestMetrics:
    def test_format_table(self):
        from repro.metrics import format_table

        text = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "30" in lines[3]

    def test_normalize(self):
        from repro.metrics import normalize

        out = normalize({"x": 2.0, "y": 4.0}, "x")
        assert out == {"x": 1.0, "y": 2.0}
        with pytest.raises(ValueError):
            normalize({"x": 0.0}, "x")

    def test_tcb_report_shape(self):
        from repro.metrics import tcb_report

        report = tcb_report()
        assert report["tenant TCB (gpu)"] < report["monolithic OS (all stacks)"]
        assert report["tenant TCB (cpu)"] < report["monolithic OS (all stacks)"]
        assert all(v > 0 for v in report.values())
