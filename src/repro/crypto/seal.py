"""Authenticated sealing of data under a symmetric key.

Used for the SPM's local seal key (LSK) when producing local attestation
reports, and for user data handed to an mEnclave in encrypted form (the
application workflow in paper section III-D).  The cipher is a SHA-256
keystream with an HMAC tag: not production-grade, but tampering and wrong
keys genuinely fail to unseal.
"""

from __future__ import annotations

import hashlib
import hmac


class AuthTagError(Exception):
    """Raised when unsealing fails authentication."""


_TAG_LEN = 32


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    prefix = key + nonce
    blocks = -(-length // 32)  # one SHA-256 digest per 32 bytes
    return b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range(blocks)
    )[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR ``stream`` (equal lengths) as one big-int operation."""
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def seal(key: bytes, plaintext: bytes, *, nonce: bytes = b"\x00" * 8) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key``."""
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = _xor(plaintext, stream)
    tag = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


def unseal(key: bytes, sealed: bytes) -> bytes:
    """Reverse :func:`seal`; raise :class:`AuthTagError` on any tampering."""
    if len(sealed) < 8 + _TAG_LEN:
        raise AuthTagError("sealed blob too short")
    nonce, body, tag = sealed[:8], sealed[8:-_TAG_LEN], sealed[-_TAG_LEN:]
    expect = hmac.new(key, nonce + body, hashlib.sha256).digest()
    if not hmac.compare_digest(expect, tag):
        raise AuthTagError("authentication tag mismatch")
    stream = _keystream(key, nonce, len(body))
    return _xor(body, stream)
