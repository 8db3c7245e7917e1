"""The remote client: the party whose data the TEE protects.

Encapsulates the verification side of the paper's attestation protocol
(section IV-A): the client is provisioned out of band with the attestation
service's and hardware vendors' trust anchors, verifies the platform
report (software measurements, device tree, accelerator authenticity),
pins expected measurements, and only then provisions sealed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.crypto.certs import Certificate
from repro.crypto.keys import PublicKey, Signature
from repro.crypto.seal import seal
from repro.hw.devicetree import DeviceTree
from repro.secure.monitor import AttestationError, AttestationReport, verify_attestation_report


@dataclass(frozen=True)
class _VerifiedAnchor(PublicKey):
    """A trust anchor that remembers the endorsements it has verified.

    :meth:`PublicKey.verify` is pure, so a ``(message, e, s)`` triple that
    verified once verifies again: the client checks each endorsement once
    for as long as it lives.  Report signatures are checked by the AtK key
    inside each report, not by an anchor, so every report is still verified.
    A failed check is never remembered.  Being a :class:`PublicKey`, the
    anchor keeps every other key method (``is_valid`` goes through the memo,
    ``fingerprint`` and ``element`` are the wrapped key's).
    """

    _verified: Set[Tuple[bytes, int, int]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    @classmethod
    def of(cls, key: PublicKey) -> "_VerifiedAnchor":
        return cls(key.element, key.label)

    def verify(self, message: bytes, signature: Signature) -> None:
        triple = (message, signature.e, signature.s)
        if triple not in self._verified:
            super().verify(message, signature)
            self._verified.add(triple)


class RemoteClient:
    """A user of the PaaS, holding only public trust anchors."""

    def __init__(
        self,
        attestation_anchor: PublicKey,
        vendor_anchors: Dict[str, PublicKey],
        *,
        expected_mos_hashes: Optional[Dict[str, str]] = None,
    ) -> None:
        self._attestation_anchor = _VerifiedAnchor.of(attestation_anchor)
        self._vendor_anchors = {
            name: _VerifiedAnchor.of(key) for name, key in vendor_anchors.items()
        }
        self._expected_mos_hashes = dict(expected_mos_hashes or {})
        self._verified_report: Optional[AttestationReport] = None

    @classmethod
    def for_system(cls, system, **kwargs) -> "RemoteClient":
        """Provision a client with the platform's published anchors (the
        out-of-band step a real deployment does once)."""
        return cls(
            system.platform.attestation_service.public,
            {name: ca.public for name, ca in system.platform.vendors.items()},
            **kwargs,
        )

    # -- attestation ---------------------------------------------------------
    def verify(
        self,
        report: AttestationReport,
        device_certs: Dict[str, Certificate],
    ) -> AttestationReport:
        """Full client-side verification; raises on any mismatch.

        Beyond the signature/endorsement chain this checks the client's
        pinned mOS measurements (a user trusts only the mOS *version* it
        audited, section III-B) and validates the embedded device tree.
        """
        verify_attestation_report(
            report, self._attestation_anchor, self._vendor_anchors, device_certs
        )
        for mos_name, expected in self._expected_mos_hashes.items():
            actual = report.mos_hashes.get(mos_name)
            if actual != expected:
                raise AttestationError(
                    f"mOS {mos_name!r} measurement {str(actual)[:16]}... does not "
                    f"match the audited version {expected[:16]}..."
                )
        DeviceTree.deserialize(report.device_tree_blob).validate()
        self._verified_report = report
        return report

    @property
    def attested(self) -> bool:
        return self._verified_report is not None

    # -- data provisioning ---------------------------------------------------
    def provision(self, handle, fn: str, plaintext: bytes):
        """Send sealed data to an attested platform's mEnclave.

        Refuses to release anything before a successful :meth:`verify` —
        the property the section III-D workflow hinges on.
        """
        if not self.attested:
            raise AttestationError("client refuses to provision data before attestation")
        blob = seal(handle.secret, plaintext)
        return handle.ecall(fn, blob)
