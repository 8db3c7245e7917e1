"""The MicroEnclave object.

Identity: a 32-bit eid whose first 8 bits are the mOS id and last 24 bits
the enclave id within that mOS (paper section IV-A) — the SPM uses the mOS
part to validate cross-mOS messages.

Ownership: the creator and the enclave run a Diffie-Hellman exchange at
creation time and share ``secret_dhke``.  Every mECall arriving over the
*untrusted* path must carry a fresh MAC under that secret (monotonic call
counter, so replays are rejected); the *trusted* path (an sRPC channel) is
authenticated once at dCheck time and then calls directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.crypto.dh import DiffieHellman, mac, mac_valid
from repro.enclave.manifest import Manifest, ManifestError
from repro.enclave.models import ExecutionError


class OwnershipError(Exception):
    """mECall rejected: caller is not the owner or the MAC/counter is bad."""


def make_eid(mos_id: int, local_id: int) -> int:
    """Compose an eid: 8 bits of mOS id, 24 bits of local enclave id."""
    if not 0 <= mos_id < (1 << 8):
        raise ValueError(f"mOS id {mos_id} out of 8-bit range")
    if not 0 <= local_id < (1 << 24):
        raise ValueError(f"local enclave id {local_id} out of 24-bit range")
    return (mos_id << 24) | local_id


def split_eid(eid: int) -> tuple:
    """Decompose an eid into (mos_id, local_id)."""
    return (eid >> 24) & 0xFF, eid & 0xFFFFFF


class MEnclave:
    """A loaded, running MicroEnclave."""

    def __init__(
        self,
        eid: int,
        manifest: Manifest,
        model,
        state: Dict[str, Any],
        measurement: bytes,
        creator_dh_public: int,
        dh_seed: bytes,
    ) -> None:
        self.eid = eid
        self.manifest = manifest
        self._model = model
        self.state = state
        """The model's live state; simulator harnesses may read it, the
        modelled system reaches it only through mECalls."""
        self.measurement = measurement
        self.alive = True
        self.calls_served = 0
        # DH exchange with the creator: derive secret_dhke and remember our
        # public value so the creator can derive the same secret.
        exchange = DiffieHellman(dh_seed)
        self.dh_public = exchange.public
        self._secret_dhke = exchange.shared_secret(creator_dh_public)
        self._last_counter = 0

    # -- ownership ---------------------------------------------------------
    def owner_tag(self, secret: bytes, fn: str, counter: int) -> bytes:
        """What the owner must attach to an untrusted-path mECall."""
        return mac(secret, self._call_payload(fn, counter))

    def _call_payload(self, fn: str, counter: int) -> bytes:
        return json.dumps({"eid": self.eid, "fn": fn, "ctr": counter}).encode()

    def prove_secret(self, challenge: bytes) -> bytes:
        """dCheck helper: prove possession of secret_dhke over a channel."""
        return mac(self._secret_dhke, b"dcheck" + challenge)

    # -- mECall paths ---------------------------------------------------------
    def mecall_untrusted(
        self,
        fn: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        *,
        counter: int,
        tag: bytes,
    ) -> Any:
        """The untrusted path: caller must MAC (eid, fn, counter) with
        secret_dhke and use a strictly increasing counter (anti-replay)."""
        if counter <= self._last_counter:
            raise OwnershipError(
                f"stale call counter {counter} (last {self._last_counter}): replay rejected"
            )
        if not mac_valid(self._secret_dhke, self._call_payload(fn, counter), tag):
            raise OwnershipError(f"mECall {fn!r} MAC invalid: caller is not the owner")
        self._last_counter = counter
        return self._invoke(fn, args, kwargs or {})

    def mecall_trusted(self, fn: str, args: tuple = (), kwargs: Optional[dict] = None) -> Any:
        """The trusted path, used by an sRPC channel after dCheck."""
        return self._invoke(fn, args, kwargs or {})

    def _invoke(self, fn: str, args: tuple, kwargs: dict) -> Any:
        if not self.alive:
            raise ExecutionError(f"mEnclave {self.eid:#010x} destroyed")
        if not self.manifest.allows(fn):
            raise ManifestError(f"mECall {fn!r} not in the manifest's static list")
        self.calls_served += 1
        return self._model.me_call(self.state, fn, args, kwargs)

    # -- lifecycle ---------------------------------------------------------------
    def destroy(self) -> None:
        if self.alive:
            self._model.me_destroy(self.state)
            self.alive = False

    def is_synchronous(self, fn: str) -> bool:
        """The sRPC annotation for this call (section IV-A edl extension)."""
        return self.manifest.mecall(fn).synchronous

    def __repr__(self) -> str:
        return f"MEnclave(eid={self.eid:#010x}, device={self.manifest.device_type})"
