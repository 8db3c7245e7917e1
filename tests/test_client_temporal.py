"""RemoteClient attestation workflow and HIX temporal-sharing costs."""

import pytest

from repro.dispatch.client import RemoteClient
from repro.enclave.images import CpuImage
from repro.enclave.manifest import Manifest, MECallSpec
from repro.secure.monitor import AttestationError
from repro.systems import HixTrustZone


def _device_certs(system):
    return {
        d.name: d.vendor_cert
        for d in system.platform.devices()
        if d.vendor_cert is not None and d.device_type != "cpu"
    }


def _victim(cronus):
    app = cronus.application("client-test")
    image = CpuImage(
        name="v",
        functions={
            "ingest": lambda state, blob: state.__setitem__("blob", blob),
            "peek": lambda state: state.get("blob"),
        },
    )
    manifest = Manifest(
        device_type="cpu",
        images={"v.so": image.digest()},
        mecalls=(MECallSpec("ingest"), MECallSpec("peek")),
    )
    return app.create_enclave(manifest, image, "v.so")


class TestRemoteClient:
    def test_verify_then_provision(self, cronus):
        handle = _victim(cronus)
        client = RemoteClient.for_system(cronus)
        client.verify(cronus.attest_platform(), _device_certs(cronus))
        assert client.attested
        client.provision(handle, "ingest", b"user data")
        sealed = handle.ecall("peek")
        assert sealed != b"user data"
        assert handle.unseal(sealed) == b"user data"

    def test_refuses_provision_before_attestation(self, cronus):
        handle = _victim(cronus)
        client = RemoteClient.for_system(cronus)
        with pytest.raises(AttestationError, match="before attestation"):
            client.provision(handle, "ingest", b"user data")

    def test_pinned_mos_hash_mismatch_rejected(self, cronus):
        client = RemoteClient.for_system(
            cronus, expected_mos_hashes={"mos-gpu0": "ff" * 32}
        )
        with pytest.raises(AttestationError, match="audited version"):
            client.verify(cronus.attest_platform(), _device_certs(cronus))

    def test_pinned_mos_hash_match_accepted(self, cronus):
        genuine = cronus.monitor.mos_measurements()["mos-gpu0"]
        client = RemoteClient.for_system(
            cronus, expected_mos_hashes={"mos-gpu0": genuine}
        )
        client.verify(cronus.attest_platform(), _device_certs(cronus))
        assert client.attested

    def test_wrong_anchor_rejected(self, cronus):
        from repro.crypto.certs import CertificateAuthority

        rogue = CertificateAuthority("rogue", b"rogue-seed")
        client = RemoteClient(
            rogue.public,
            {name: ca.public for name, ca in cronus.platform.vendors.items()},
        )
        with pytest.raises(AttestationError):
            client.verify(cronus.attest_platform(), _device_certs(cronus))

    def test_warm_client_still_rejects_every_forgery(self, cronus):
        """A client's anchors remember the endorsements they verified; a
        client that has accepted the genuine report must still refuse each
        forgery, and accept the genuine report again afterwards."""
        from dataclasses import replace

        from repro.crypto.certs import CertificateAuthority

        client = RemoteClient.for_system(cronus)
        report, certs = cronus.attest_platform(), _device_certs(cronus)
        client.verify(report, certs)
        gpu, gpu_cert = "gpu0", certs["gpu0"]
        other = next(name for name in certs if name != gpu)
        rogue = CertificateAuthority(gpu_cert.issuer_name, b"rogue-ca-seed")
        forgeries = {
            "signature": (replace(report, menclave_hashes={"0xdead": "ff" * 32}), certs),
            "unsigned": (replace(report, signature=None), certs),
            "no vendor certificate": (report, {k: v for k, v in certs.items() if k != gpu}),
            "unknown vendor": (report, {**certs, gpu: CertificateAuthority(
                "acme", b"acme-seed").endorse(gpu, gpu_cert.subject)}),
            "not endorsed": (report, {**certs, gpu: rogue.endorse(gpu, gpu_cert.subject)}),
            "fingerprint": (report, {**certs, gpu: certs[other]}),
        }
        for match, (forged, forged_certs) in forgeries.items():
            with pytest.raises(AttestationError, match=match):
                client.verify(forged, forged_certs)
        assert client.verify(report, certs) is report

    def test_anchors_keep_the_public_key_interface(self, cronus):
        """Attestation code may use an anchor as any ``PublicKey``."""
        from repro.crypto.keys import PublicKey
        from repro.dispatch.client import _VerifiedAnchor

        key = cronus.platform.attestation_service.public
        anchor = _VerifiedAnchor.of(key)
        cert = cronus.attest_platform().atk_certificate
        assert isinstance(anchor, PublicKey)
        assert anchor.fingerprint() == key.fingerprint()
        assert anchor.is_valid(cert.payload(), cert.signature)
        assert anchor.is_valid(cert.payload(), cert.signature)
        assert not anchor.is_valid(b"forged", cert.signature)


class TestHixTemporalSharing:
    def test_first_tenant_pays_no_reset(self):
        system = HixTrustZone()
        before = system.clock.now
        rt = system.runtime(cuda_kernels=("vecadd",))
        assert system.clock.now - before < system.platform.costs.accelerator_reset_us
        rt.close()

    def test_tenant_switch_cold_reboots_accelerator(self):
        """Table I remark 1: dedicated-access designs cold-reboot the
        accelerator when switching tenants."""
        system = HixTrustZone()
        rt1 = system.runtime(cuda_kernels=("vecadd",))
        handle = rt1.cudaMalloc((64,))
        rt1.close()
        gpu = system.platform.device("gpu0")
        before = system.clock.now
        rt2 = system.runtime(cuda_kernels=("vecadd",))
        assert system.clock.now - before >= system.platform.costs.accelerator_reset_us
        assert gpu.bytes_in_use == 0  # previous tenant's state cleared
        rt2.close()

    def test_switch_cost_dwarfs_cronus_context_create(self):
        """The R2 economics: CRONUS adds a tenant in ~half a millisecond;
        HIX's temporal switch costs an accelerator reset."""
        from repro.systems import CronusSystem

        cronus = CronusSystem()
        start = cronus.clock.now
        rt = cronus.runtime(cuda_kernels=("vecadd",), owner="t2")
        cronus_cost = cronus.clock.now - start
        cronus.release(rt)

        hix = HixTrustZone()
        hix.runtime(cuda_kernels=("vecadd",)).close()
        start = hix.clock.now
        rt2 = hix.runtime(cuda_kernels=("vecadd",))
        hix_cost = hix.clock.now - start
        rt2.close()

        assert hix_cost > 50 * cronus_cost
