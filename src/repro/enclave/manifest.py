"""mEnclave manifests.

A manifest (figure 3 of the paper) declares the device type, the hashes of
every image the mEnclave loads, the list of mECalls (with the
synchronous/asynchronous flag CRONUS adds to the ``edl`` format for sRPC),
and the resource capacity.  The Enclave Manager refuses to load images
whose measurement does not match the manifest, and the attestation report
covers the manifest's closure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.crypto.hashing import measure


class ManifestError(Exception):
    """A malformed manifest or a failed image-hash check."""


@dataclass(frozen=True)
class MECallSpec:
    """One mECall declaration: its name and whether callers must wait.

    ``synchronous=False`` marks calls sRPC may stream without joining the
    consumer (e.g. ``cudaLaunchKernel``); ``synchronous=True`` marks calls
    that return data or order the device (e.g. ``cudaMemcpyD2H``).
    """

    name: str
    synchronous: bool = True


@dataclass(frozen=True)
class Manifest:
    """The complete mEnclave description a client attests against."""

    device_type: str
    images: Dict[str, str]  # file name -> hex SHA-256
    mecalls: Tuple[MECallSpec, ...]
    memory_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if self.device_type not in ("cpu", "gpu", "npu"):
            raise ManifestError(f"unknown device type {self.device_type!r}")
        if self.memory_bytes <= 0:
            raise ManifestError(f"bad memory capacity {self.memory_bytes}")
        by_name = {c.name: c for c in self.mecalls}
        if len(by_name) != len(self.mecalls):
            raise ManifestError("duplicate mECall names")
        # Not a field: the name index is derived, so equality, hashing and
        # ``serialize()`` see only the declared tuple.
        object.__setattr__(self, "_by_name", by_name)

    def mecall(self, name: str) -> MECallSpec:
        call = self._by_name.get(name) if isinstance(name, str) else None
        if call is None:
            raise ManifestError(f"mECall {name!r} not declared in manifest")
        return call

    def allows(self, name: str) -> bool:
        return isinstance(name, str) and name in self._by_name

    def check_image(self, file_name: str, blob: bytes) -> None:
        """Verify one image blob against its declared hash."""
        declared = self.images.get(file_name)
        if declared is None:
            raise ManifestError(f"image {file_name!r} not declared in manifest")
        actual = measure(blob).hex()
        if actual != declared:
            raise ManifestError(
                f"image {file_name!r} hash mismatch: manifest={declared[:16]}... "
                f"actual={actual[:16]}..."
            )

    def serialize(self) -> bytes:
        """Canonical bytes, measured into the mEnclave's identity."""
        body = {
            "device_type": self.device_type,
            "images": dict(sorted(self.images.items())),
            "mecalls": [
                {"name": c.name, "synchronous": c.synchronous} for c in self.mecalls
            ],
            "resources": {"memory": self.memory_bytes},
        }
        return json.dumps(body, sort_keys=True).encode()

    @classmethod
    def from_json(cls, raw: bytes) -> "Manifest":
        """Parse the JSON form shown in figure 3 of the paper."""
        try:
            body = json.loads(raw.decode())
            mecalls = tuple(
                MECallSpec(name=c["name"], synchronous=c.get("synchronous", True))
                for c in body["mecalls"]
            )
            return cls(
                device_type=body["device_type"],
                images=dict(body.get("images", {})),
                mecalls=mecalls,
                memory_bytes=int(body.get("resources", {}).get("memory", 1 << 30)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
