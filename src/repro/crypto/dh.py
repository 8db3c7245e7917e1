"""Diffie-Hellman key exchange.

CRONUS integrates DH into mEnclave creation so the creator and the created
mEnclave share ``secret_dhke`` (paper section IV-A): every message crossing
untrusted memory before the trusted channel exists is authenticated with
this secret, which also survives mOS substitution attacks — a substituted
mEnclave with the same eid does not know the secret.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.group import P, hash_to_int, int_to_bytes, pow_g


class DiffieHellman:
    """One party of a DH exchange over the shared MODP group."""

    def __init__(self, seed: bytes) -> None:
        self._secret = hash_to_int(seed, b"dh-secret")
        if self._secret == 0:
            self._secret = 1
        self.public = pow_g(self._secret)

    def shared_secret(self, peer_public: int) -> bytes:
        """Derive the 32-byte shared secret from the peer's public value."""
        if not 1 < peer_public < P - 1:
            raise ValueError("peer public value out of group range")
        shared = pow(peer_public, self._secret, P)
        return hashlib.sha256(b"dhke" + int_to_bytes(shared)).digest()


def mac(secret: bytes, message: bytes) -> bytes:
    """Authenticate ``message`` under a DH-derived secret (HMAC-SHA256)."""
    return hmac.new(secret, message, hashlib.sha256).digest()


def mac_valid(secret: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time check of :func:`mac`."""
    return hmac.compare_digest(mac(secret, message), tag)
