"""Schnorr key pairs and signatures.

These model every signing identity in CRONUS: the platform root of trust
(PubK/PvK), the derived attestation key (AtK), accelerator vendor keys
(PubK_acc/PvK_acc), and the SPM's local seal key.  Signing is deterministic
(the nonce is derived from the secret and the message) so simulations are
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.group import P, Q, hash_to_int, int_to_bytes, jacobi, pow_g


class SignatureError(Exception):
    """Raised when signature verification fails."""


def commitment(element: int, e: int, s: int) -> int:
    """The verifier's Schnorr commitment ``g^s * y^(Q-e) mod P``.

    For ``y`` invertible mod P, ``y^(Q-e) = y^Q * y^(-e)`` and ``y^Q`` is
    the Legendre symbol of ``y`` (1 or P-1), so the 767-bit exponent
    becomes a Jacobi-symbol step plus a pow whose exponent is ``e`` (at
    most 256 bits for a decoded signature).  ``y = 0 mod P`` keeps the
    plain formula.
    """
    if element % P == 0:
        return pow_g(s) * pow(element, Q - e, P) % P
    r = pow_g(s) * pow(element, -e, P) % P
    return r if jacobi(element, P) == 1 else P - r


@dataclass(frozen=True)
class PublicKey:
    """A verifying key: the group element ``g^x``."""

    element: int
    label: str = ""

    def verify(self, message: bytes, signature: "Signature") -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        if not 0 < signature.s < Q:
            raise SignatureError("signature scalar out of range")
        r = commitment(self.element, signature.e, signature.s)
        e = hash_to_int(int_to_bytes(r), int_to_bytes(self.element), message)
        if e != signature.e:
            raise SignatureError(f"bad signature for key {self.label!r}")

    def is_valid(self, message: bytes, signature: "Signature") -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def fingerprint(self) -> bytes:
        """Short stable identifier, used inside attestation reports."""
        return hashlib.sha256(int_to_bytes(self.element)).digest()[:16]


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature (challenge ``e``, response ``s``)."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        return self.e.to_bytes(32, "big") + self.s.to_bytes(96, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 128:
            raise SignatureError(f"signature must be 128 bytes, got {len(raw)}")
        return cls(e=int.from_bytes(raw[:32], "big"), s=int.from_bytes(raw[32:], "big"))


@dataclass(frozen=True)
class KeyPair:
    """A signing identity; ``secret`` never leaves the owning component."""

    secret: int
    public: PublicKey

    def sign(self, message: bytes) -> Signature:
        """Deterministic Schnorr signature of ``message``."""
        k = hash_to_int(self.secret.to_bytes(96, "big"), message, b"nonce")
        if k == 0:
            k = 1
        r = pow_g(k)
        e = hash_to_int(int_to_bytes(r), int_to_bytes(self.public.element), message)
        s = (k + e * self.secret) % Q
        return Signature(e=e, s=s)


def generate_keypair(seed: bytes, label: str = "") -> KeyPair:
    """Derive a key pair deterministically from ``seed``.

    Hardware keys in CRONUS are burned into ROM at manufacture time; we
    model that by deriving them from a per-device seed, so the same
    simulated platform always owns the same identity.
    """
    secret = hash_to_int(hashlib.sha256(seed).digest(), b"keygen")
    if secret == 0:
        secret = 1
    public = PublicKey(element=pow_g(secret), label=label)
    return KeyPair(secret=secret, public=public)
