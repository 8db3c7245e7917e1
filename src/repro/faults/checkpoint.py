"""Application-data checkpointing.

CRONUS's failure model deliberately does not recover application data:
"After crashes, the system recovers and continues serving new requests
without compromising safety.  CRONUS ... can integrate techniques for
recovering application data for this purpose" (section III-B).  This
module is that integration: sealed checkpoints of enclave-resident state
(e.g. GPU training buffers) stored in *untrusted* normal-world storage.

Security: blobs are sealed under the owner's secret (confidentiality +
integrity), and a monotonic version counter kept by the owner detects
rollback — the paper lists rollback of sealed data as out of scope but
integrable with existing defenses [77]; the counter is that defense's
minimal form.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.crypto.seal import AuthTagError, seal, unseal
from repro.rpc.codec import loads


class CheckpointError(Exception):
    """Missing checkpoint or failed unsealing."""


class RollbackError(Exception):
    """The store returned an older version than the owner last wrote."""


@dataclass
class _StoredBlob:
    version: int
    sealed: bytes


class CheckpointStore:
    """Untrusted normal-world storage: an adversary may replay old blobs."""

    def __init__(self) -> None:
        self._blobs: Dict[str, List[_StoredBlob]] = {}

    def put(self, name: str, version: int, sealed: bytes) -> None:
        self._blobs.setdefault(name, []).append(_StoredBlob(version, sealed))

    def get_latest(self, name: str) -> _StoredBlob:
        try:
            return self._blobs[name][-1]
        except (KeyError, IndexError):
            raise CheckpointError(f"no checkpoint named {name!r}") from None

    def rollback_to(self, name: str, version: int) -> None:
        """Adversary action: re-expose an older blob as the latest."""
        history = self._blobs.get(name, [])
        older = [b for b in history if b.version == version]
        if older:
            history.append(older[0])


class CheckpointManager:
    """Owner-side checkpoint logic for one application.

    ``versions`` may be a shared dict: the monotonic rollback counter
    belongs to the *owner*, not to any one machine, so a cluster keeps one
    logical counter map that every per-node manager (same owner secret,
    different platform clock) reads and writes.  A node that restores a
    tenant after another node died then still detects a store replaying a
    pre-migration blob.
    """

    def __init__(
        self,
        owner_secret: bytes,
        store: CheckpointStore,
        platform,
        *,
        versions: Optional[Dict[str, int]] = None,
    ) -> None:
        self._secret = owner_secret
        self._store = store
        self._platform = platform
        self._versions: Dict[str, int] = versions if versions is not None else {}

    # -- generic payloads ------------------------------------------------
    def save(self, name: str, payload: Dict[str, np.ndarray]) -> int:
        """Seal + store a named checkpoint; returns its version."""
        raw = pickle.dumps(payload)
        costs = self._platform.costs
        self._platform.clock.advance(
            costs.copy_cost_us(len(raw), per_kib=costs.encryption_us_per_kib)
        )
        version = self._versions.get(name, 0) + 1
        nonce = version.to_bytes(8, "big")
        self._store.put(name, version, seal(self._secret, raw, nonce=nonce))
        self._versions[name] = version
        return version

    def load(self, name: str) -> Dict[str, np.ndarray]:
        """Fetch, verify and unseal the latest checkpoint.

        Raises :class:`RollbackError` if the store served a version older
        than the owner's monotonic counter.
        """
        blob = self._store.get_latest(name)
        expected = self._versions.get(name)
        if expected is not None and blob.version < expected:
            raise RollbackError(
                f"checkpoint {name!r}: store served version {blob.version} "
                f"but owner last wrote {expected}"
            )
        try:
            raw = unseal(self._secret, blob.sealed)
        except AuthTagError as exc:
            raise CheckpointError(f"checkpoint {name!r} failed unsealing: {exc}") from exc
        costs = self._platform.costs
        self._platform.clock.advance(
            costs.copy_cost_us(len(raw), per_kib=costs.encryption_us_per_kib)
        )
        try:
            return loads(raw)
        except (pickle.UnpicklingError, ValueError, EOFError) as exc:
            raise CheckpointError(f"checkpoint {name!r} failed decoding: {exc}") from exc

    # -- GPU-state convenience --------------------------------------------
    def checkpoint_gpu(self, rt, name: str, handles: Dict[str, int]) -> int:
        """Read named device buffers (D2H, charged) and checkpoint them."""
        payload = {key: rt.cudaMemcpyD2H(h) for key, h in handles.items()}
        return self.save(name, payload)

    def restore_gpu(self, rt, name: str) -> Dict[str, int]:
        """Restore a checkpoint into fresh device buffers on ``rt``."""
        payload = self.load(name)
        handles: Dict[str, int] = {}
        for key, array in payload.items():
            handle = rt.cudaMalloc(array.shape)
            rt.cudaMemcpyH2D(handle, array)
            handles[key] = handle
        return handles
