"""MicroOS layers (shim, HAL, Enclave Manager) and the mEnclave model."""

import numpy as np
import pytest

from repro.enclave.images import CpuImage, CudaImage, NpuImage
from repro.enclave.manifest import Manifest, ManifestError, MECallSpec
from repro.enclave.menclave import OwnershipError, make_eid, split_eid
from repro.enclave.models import (
    CUDA_MECALLS,
    ExecutionError,
    NPU_MECALLS,
    model_for_device,
)
from repro.mos.hal import HalError
from repro.mos.manager import EnclaveManagerError
from repro.mos.shim import LockError


def _cpu_image():
    return CpuImage(
        name="lib",
        functions={
            "put": lambda state, k, v: state.__setitem__(k, v),
            "get": lambda state, k: state.get(k),
        },
    )


def _cpu_manifest(image, memory_bytes=1 << 20):
    return Manifest(
        device_type="cpu",
        images={"lib.so": image.digest()},
        mecalls=(MECallSpec("put"), MECallSpec("get")),
        memory_bytes=memory_bytes,
    )


class TestEidScheme:
    def test_roundtrip(self):
        eid = make_eid(3, 77)
        assert split_eid(eid) == (3, 77)

    def test_layout(self):
        assert make_eid(1, 1) == 0x01000001

    def test_range_checks(self):
        with pytest.raises(ValueError):
            make_eid(256, 0)
        with pytest.raises(ValueError):
            make_eid(0, 1 << 24)


class TestManifest:
    def test_unknown_device_rejected(self):
        with pytest.raises(ManifestError):
            Manifest(device_type="fpga", images={}, mecalls=())

    def test_duplicate_mecalls_rejected(self):
        with pytest.raises(ManifestError):
            Manifest(
                device_type="cpu", images={},
                mecalls=(MECallSpec("f"), MECallSpec("f")),
            )

    def test_bad_memory_rejected(self):
        with pytest.raises(ManifestError):
            Manifest(device_type="cpu", images={}, mecalls=(), memory_bytes=0)

    def test_image_hash_check(self):
        image = _cpu_image()
        manifest = _cpu_manifest(image)
        manifest.check_image("lib.so", image.blob())
        with pytest.raises(ManifestError, match="hash mismatch"):
            manifest.check_image("lib.so", b"trojaned bytes")

    def test_undeclared_image_rejected(self):
        manifest = _cpu_manifest(_cpu_image())
        with pytest.raises(ManifestError, match="not declared"):
            manifest.check_image("other.so", b"x")

    def test_json_roundtrip(self):
        manifest = _cpu_manifest(_cpu_image())
        clone = Manifest.from_json(manifest.serialize())
        assert clone.serialize() == manifest.serialize()
        assert clone.mecall("put").synchronous

    def test_malformed_json_rejected(self):
        with pytest.raises(ManifestError):
            Manifest.from_json(b"{not json")

    def test_allows(self):
        manifest = _cpu_manifest(_cpu_image())
        assert manifest.allows("put")
        assert not manifest.allows("rm_rf")

    def test_mecall_lookup_missing(self):
        with pytest.raises(ManifestError):
            _cpu_manifest(_cpu_image()).mecall("ghost")


class TestImages:
    def test_cpu_image_digest_tracks_content(self):
        image_a = CpuImage(name="x", functions={"f": lambda s: 1})
        image_b = CpuImage(name="x", functions={"f": lambda s: 2})
        assert image_a.digest() != image_b.digest()

    def test_cuda_image_kernel_gate(self):
        image = CudaImage(name="k", kernels=("matmul",))
        assert image.allows_kernel("matmul")
        assert not image.allows_kernel("evil_kernel")

    def test_npu_image_program_lookup(self):
        from repro.workloads.vta_bench import make_gemm_program

        image = NpuImage(name="n", programs={"gemm": make_gemm_program()})
        assert image.program("gemm").name == "gemm"
        from repro.enclave.images import ImageError

        with pytest.raises(ImageError):
            image.program("ghost")


class TestExecutionModels:
    def test_model_for_device(self):
        assert model_for_device("cpu").device_type == "cpu"
        assert model_for_device("gpu").device_type == "gpu"
        assert model_for_device("npu").device_type == "npu"
        with pytest.raises(ExecutionError):
            model_for_device("quantum")

    def test_cuda_mecalls_have_async_annotations(self):
        """The sRPC edl extension: launches stream, D2H syncs."""
        by_name = {c.name: c for c in CUDA_MECALLS}
        assert not by_name["cudaLaunchKernel"].synchronous
        assert not by_name["cudaMemcpyH2D"].synchronous
        assert by_name["cudaMemcpyD2H"].synchronous
        assert by_name["cudaDeviceSynchronize"].synchronous

    def test_npu_mecalls_annotations(self):
        by_name = {c.name: c for c in NPU_MECALLS}
        assert not by_name["vtaRun"].synchronous
        assert by_name["vtaReadTensor"].synchronous

    def test_wrong_image_type_rejected(self):
        with pytest.raises(ExecutionError):
            model_for_device("gpu").me_create(_cpu_image(), None)


class TestShimKernel:
    def test_ioremap_secure_device(self, cronus):
        mos = cronus.moses["gpu0"]
        base, size = mos.shim.ioremap("gpu0", 0x4000_0000, 0x1000)
        assert mos.shim.io_mapping("gpu0") == (base, size)
        mos.shim.iounmap("gpu0")
        assert mos.shim.io_mapping("gpu0") is None

    def test_spinlock_mutual_exclusion(self, cronus):
        mos = cronus.moses["cpu0"]
        pages = mos.shim.alloc_pages(1)
        lock = mos.shim.spinlock_at(pages[0])
        assert lock.try_acquire()
        assert not lock.try_acquire()
        lock.release()
        assert lock.try_acquire()

    def test_double_release_rejected(self, cronus):
        mos = cronus.moses["cpu0"]
        pages = mos.shim.alloc_pages(1)
        lock = mos.shim.spinlock_at(pages[0])
        lock.acquire()
        lock.release()
        with pytest.raises(LockError):
            lock.release()

    def test_spin_budget_exhaustion(self, cronus):
        mos = cronus.moses["cpu0"]
        pages = mos.shim.alloc_pages(1)
        lock = mos.shim.spinlock_at(pages[0])
        lock.acquire()
        with pytest.raises(LockError, match="spin budget"):
            lock.acquire(max_spins=10)


class TestHal:
    def test_device_attestation_succeeds_for_genuine(self, cronus):
        mos = cronus.moses["gpu0"]
        anchor = cronus.platform.vendors["nvidia"].public
        assert mos.hal.attest_device(anchor) is mos.partition.device.public_key

    def test_device_attestation_wrong_vendor(self, cronus):
        mos = cronus.moses["gpu0"]
        wrong_anchor = cronus.platform.vendors["vta"].public
        with pytest.raises(HalError):
            mos.hal.attest_device(wrong_anchor)

    def test_reattestation_in_the_same_epoch_verifies_nothing(self, cronus, verify_calls):
        mos = cronus.moses["gpu0"]
        anchor = cronus.platform.vendors["nvidia"].public
        mos.hal.attest_device(anchor)
        assert verify_calls == {"ca:nvidia": 1, "dev:gpu0": 1}
        verify_calls.clear()
        assert mos.hal.attest_device(anchor) is mos.partition.device.public_key
        assert sum(verify_calls.values()) == 0

    def test_cleared_device_proves_itself_again(self, cronus, verify_calls):
        mos = cronus.moses["gpu0"]
        anchor = cronus.platform.vendors["nvidia"].public
        mos.hal.attest_device(anchor)
        mos.partition.device.clear_state()
        verify_calls.clear()
        assert mos.hal.attest_device(anchor) is mos.partition.device.public_key
        assert verify_calls == {"ca:nvidia": 1, "dev:gpu0": 1}

    def test_endorsement_swapped_after_attestation_is_rejected(self, cronus):
        from repro.crypto import CertificateAuthority

        mos = cronus.moses["gpu0"]
        device = mos.partition.device
        anchor = cronus.platform.vendors["nvidia"].public
        mos.hal.attest_device(anchor)
        rogue = CertificateAuthority(device.vendor_cert.issuer_name, b"rogue-ca-seed")
        device.vendor_cert = rogue.endorse(device.name, device.public_key)
        with pytest.raises(HalError, match="not endorsed"):
            mos.hal.attest_device(anchor)

    def test_failed_check_is_never_remembered(self, cronus, verify_calls):
        mos = cronus.moses["gpu0"]
        wrong_anchor = cronus.platform.vendors["vta"].public
        for _ in range(2):
            with pytest.raises(HalError):
                mos.hal.attest_device(wrong_anchor)
        assert verify_calls == {"ca:vta": 2}

    def test_hal_device_type_guard(self, cronus):
        from repro.mos.hal import GpuHal

        cpu_device = cronus.platform.device("cpu0")
        with pytest.raises(HalError):
            GpuHal(cpu_device, cronus.moses["cpu0"].shim)

    def test_gpu_context_limit(self, cronus, monkeypatch):
        from repro.mos import hal as hal_module

        monkeypatch.setattr(hal_module, "MAX_GPU_CONTEXTS", 2)
        hal = cronus.moses["gpu0"].hal
        hal.create_gpu_context("a")
        hal.create_gpu_context("b")
        with pytest.raises(HalError, match="context limit"):
            hal.create_gpu_context("c")


class TestEnclaveManager:
    def test_create_and_call(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        handle.ecall("put", "k", 42)
        assert handle.ecall("get", "k") == 42

    def test_eid_embeds_mos_id(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        mos_id, local = split_eid(handle.eid)
        assert mos_id == handle.mos.mos_id
        assert local >= 1

    def test_tampered_image_rejected(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        manifest = _cpu_manifest(image)
        trojan = CpuImage(name="lib", functions={"put": lambda s, k, v: None,
                                                 "get": lambda s, k: b"stolen"})
        with pytest.raises(ManifestError, match="hash mismatch"):
            app.create_enclave(manifest, trojan, "lib.so")

    def test_device_type_mismatch_rejected(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        with pytest.raises(EnclaveManagerError):
            app.create_enclave(_cpu_manifest(image), image, "lib.so",
                               mos=cronus.moses["gpu0"])

    def test_resource_quota_enforced(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        big = _cpu_manifest(image, memory_bytes=1 << 40)
        with pytest.raises(EnclaveManagerError, match="capacity"):
            app.create_enclave(big, image, "lib.so")

    def test_destroy_releases_resources(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        manager = handle.mos.manager
        reserved = manager.reserved_bytes
        app.destroy_enclave(handle)
        assert manager.reserved_bytes == reserved - (1 << 20)
        with pytest.raises(EnclaveManagerError):
            manager.get(handle.eid)

    def test_mecall_not_in_manifest_rejected(self, cronus):
        app = cronus.application("t")
        image = CpuImage(name="lib", functions={"put": lambda s, k, v: None,
                                                "get": lambda s, k: None,
                                                "hidden": lambda s: "secret"})
        manifest = Manifest(
            device_type="cpu",
            images={"lib.so": image.digest()},
            mecalls=(MECallSpec("put"), MECallSpec("get")),  # hidden not listed
        )
        handle = app.create_enclave(manifest, image, "lib.so")
        with pytest.raises(ManifestError, match="static list"):
            handle.ecall("hidden")


class TestOwnership:
    def test_owner_calls_succeed(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        handle.ecall("put", "x", 1)

    def test_wrong_secret_rejected(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        tag = handle.enclave.owner_tag(b"\x00" * 32, "get", 5)
        with pytest.raises(OwnershipError, match="not the owner"):
            handle.enclave.mecall_untrusted("get", ("x",), {}, counter=5, tag=tag)

    def test_replayed_counter_rejected(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        tag = handle.enclave.owner_tag(handle.secret, "put", 1)
        handle.enclave.mecall_untrusted("put", ("k", 1), {}, counter=1, tag=tag)
        with pytest.raises(OwnershipError, match="replay"):
            handle.enclave.mecall_untrusted("put", ("k", 1), {}, counter=1, tag=tag)

    def test_sealed_data_path(self, cronus):
        """Section III-D: the user seals data; the enclave unseals inside."""
        from repro.crypto.seal import unseal

        app = cronus.application("t")
        image = CpuImage(
            name="lib",
            functions={
                "put": lambda state, blob: state.__setitem__("blob", blob),
                "get": lambda state: state.get("blob"),
            },
        )
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        handle.send_sealed("put", b"plaintext user data")
        sealed = handle.ecall("get")
        assert sealed != b"plaintext user data"  # opaque in untrusted memory
        assert unseal(handle.secret, sealed) == b"plaintext user data"

    def test_destroyed_enclave_rejects_calls(self, cronus):
        app = cronus.application("t")
        image = _cpu_image()
        handle = app.create_enclave(_cpu_manifest(image), image, "lib.so")
        handle.enclave.destroy()
        with pytest.raises(ExecutionError, match="destroyed"):
            handle.enclave.mecall_trusted("get", ("x",))


class TestCudaEnclave:
    def test_cuda_enclave_computes(self, cronus):
        app = cronus.application("t")
        image = CudaImage(name="mat", kernels=("vecadd",))
        manifest = Manifest(
            device_type="gpu", images={"mat.cubin": image.digest()}, mecalls=CUDA_MECALLS
        )
        handle = app.create_enclave(manifest, image, "mat.cubin")
        a = handle.ecall("cudaMalloc", (8,))
        b = handle.ecall("cudaMalloc", (8,))
        c = handle.ecall("cudaMalloc", (8,))
        handle.ecall("cudaMemcpyH2D", a, np.full(8, 2.0, np.float32))
        handle.ecall("cudaMemcpyH2D", b, np.full(8, 3.0, np.float32))
        handle.ecall("cudaLaunchKernel", "vecadd", [a, b, c])
        assert np.all(handle.ecall("cudaMemcpyD2H", c) == 5.0)

    def test_kernel_outside_cubin_rejected(self, cronus):
        app = cronus.application("t")
        image = CudaImage(name="mat", kernels=("vecadd",))
        manifest = Manifest(
            device_type="gpu", images={"mat.cubin": image.digest()}, mecalls=CUDA_MECALLS
        )
        handle = app.create_enclave(manifest, image, "mat.cubin")
        a = handle.ecall("cudaMalloc", (4, 4))
        with pytest.raises(ExecutionError, match="not present in cubin"):
            handle.ecall("cudaLaunchKernel", "matmul", [a, a, a])


class TestConditionVar:
    def _shared_condvar(self, cronus):
        cpu = cronus.moses["cpu0"]
        gpu = cronus.moses["gpu0"]
        pages = cpu.shim.alloc_pages(1)
        cronus.spm.share_pages(cpu.partition, gpu.partition, pages)
        return cpu.shim.condvar_at(pages[0]), gpu.shim.condvar_at(pages[0])

    def test_notify_wakes_waiter(self, cronus):
        waiter, notifier = self._shared_condvar(cronus)
        seen = waiter.sequence()
        notifier.notify()
        assert waiter.wait(seen) == seen + 1

    def test_wait_without_notify_times_out(self, cronus):
        from repro.mos.shim import LockError

        waiter, _ = self._shared_condvar(cronus)
        with pytest.raises(LockError, match="no notify"):
            waiter.wait(waiter.sequence(), max_spins=5)

    def test_multiple_notifies_accumulate(self, cronus):
        waiter, notifier = self._shared_condvar(cronus)
        for _ in range(3):
            notifier.notify()
        assert waiter.wait(0) == 3

    def test_wait_on_failed_peer_signals(self, cronus):
        """A2 for condvars: the waiter is signalled, never deadlocked."""
        from repro.secure.partition import PeerFailedSignal

        waiter, _ = self._shared_condvar(cronus)
        seen = waiter.sequence()
        cronus.fail_partition("gpu0")
        with pytest.raises(PeerFailedSignal):
            waiter.wait(seen, max_spins=10_000)
