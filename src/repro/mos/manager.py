"""The Enclave Manager.

Device-independent mOS half (paper section IV-A): loads and initializes
mEnclaves from manifests, verifies image hashes, books resources, runs the
creation-time Diffie-Hellman exchange, and produces local-attestation
reports through the secure monitor.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.hashing import measure_many
from repro.enclave.manifest import Manifest, ManifestError
from repro.enclave.menclave import MEnclave, make_eid
from repro.enclave.models import model_for_device


class EnclaveManagerError(Exception):
    """Creation/lookup failures in the Enclave Manager."""


class EnclaveManager:
    """Manages the mEnclaves of one mOS."""

    def __init__(self, mos) -> None:
        self._mos = mos
        self._enclaves: Dict[int, MEnclave] = {}
        self._channels_by_eid: Dict[int, list] = {}
        self._next_local = 1
        self._reserved_bytes = 0

    # -- lifecycle ---------------------------------------------------------
    def create(
        self,
        manifest: Manifest,
        image,
        image_file_name: str,
        creator_dh_public: int,
    ) -> MEnclave:
        """Create an mEnclave: verify the manifest, load the runtime, run
        the DH exchange with the creator (the caller becomes the owner)."""
        mos = self._mos
        if manifest.device_type != mos.device_type:
            raise EnclaveManagerError(
                f"manifest targets {manifest.device_type!r} but this mOS manages "
                f"{mos.device_type!r}"
            )
        manifest.check_image(image_file_name, image.blob())
        capacity = getattr(mos.hal.device, "memory_bytes", 0) or (1 << 34)
        if self._reserved_bytes + manifest.memory_bytes > capacity:
            raise EnclaveManagerError(
                f"resource capacity exceeded on {mos.name!r}: "
                f"{self._reserved_bytes + manifest.memory_bytes} > {capacity}"
            )

        model = model_for_device(manifest.device_type)
        state = model.me_create(image, mos.hal, memory_quota=manifest.memory_bytes)
        local_id = self._next_local
        self._next_local += 1
        eid = make_eid(mos.mos_id, local_id)
        measurement = measure_many([manifest.serialize(), image.blob()])

        costs = mos.platform.costs
        mos.platform.clock.advance(costs.menclave_create_us + costs.dh_exchange_us)

        enclave = MEnclave(
            eid=eid,
            manifest=manifest,
            model=model,
            state=state,
            measurement=measurement,
            creator_dh_public=creator_dh_public,
            dh_seed=f"{mos.name}:{eid}".encode(),
        )
        self._enclaves[eid] = enclave
        self._reserved_bytes += manifest.memory_bytes
        mos.platform.tracer.emit("manager", "create-enclave", f"{eid:#010x} on {mos.name}")
        mos.platform.obs.event(
            "enclave.create", category="enclave",
            partition=mos.partition.name, enclave=f"{eid:#010x}",
            device_type=manifest.device_type,
        )
        mos.platform.metrics.counter("enclave", "created").inc()
        return enclave

    def destroy(self, eid: int) -> None:
        enclave = self.get(eid)
        enclave.destroy()
        self._reserved_bytes -= enclave.manifest.memory_bytes
        del self._enclaves[eid]
        platform = self._mos.platform
        obs = platform.obs
        name = self._mos.partition.name
        # On the failure path there is no open span: chain under the
        # partition's last activity so teardown stays in the trace of
        # the request that was running when the partition died.
        obs.event(
            "enclave.destroy", category="enclave",
            parent=obs.current() or obs.partition_context(name),
            partition=name, enclave=f"{eid:#010x}",
        )
        platform.metrics.counter("enclave", "destroyed").inc()

    def destroy_all(self) -> None:
        """Tear down every enclave (partition failure path)."""
        for eid in list(self._enclaves):
            try:
                self.destroy(eid)
            except Exception:  # enclave state may already be gone post-crash
                self._enclaves.pop(eid, None)
        self._reserved_bytes = 0

    # -- lookup -------------------------------------------------------------
    def get(self, eid: int) -> MEnclave:
        try:
            return self._enclaves[eid]
        except KeyError:
            raise EnclaveManagerError(f"no mEnclave {eid:#010x} in mOS {self._mos.name!r}") from None

    def enclaves(self) -> Dict[int, MEnclave]:
        return dict(self._enclaves)

    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

    # -- mEnclave-level failure (section IV-D) ---------------------------------
    def register_channel(self, eid: int, channel) -> None:
        """sRPC channels register so enclave failures can tear them down."""
        self._channels_by_eid.setdefault(eid, []).append(channel)

    def fail_enclave(self, eid: int) -> int:
        """An mEnclave fails (not its partition): remove its mappings and
        invalidate the shared pages of its channels in *both* mOSes'
        stage-2 tables, so communicating mEnclaves trap and are notified —
        the partition itself keeps running.  Returns invalidated entries."""
        enclave = self.get(eid)
        enclave.destroy()
        invalidated = 0
        for channel in self._channels_by_eid.pop(eid, []):
            for stream in getattr(channel, "_streams", {}).values():
                if stream.grant is not None:
                    invalidated += self._mos.spm.invalidate_grant_for_enclave_failure(
                        stream.grant
                    )
        self._reserved_bytes -= enclave.manifest.memory_bytes
        self._enclaves.pop(eid, None)
        return invalidated

    # -- attestation -----------------------------------------------------------
    def measurements(self) -> Dict[str, str]:
        """Per-enclave measurements for the platform attestation report."""
        return {f"{e.eid:#010x}": e.measurement.hex() for e in self._enclaves.values()}

    def local_report(self, eid: int):
        """Request a monitor-sealed local attestation report (section IV-A)."""
        enclave = self.get(eid)
        self._mos.platform.clock.advance(self._mos.platform.costs.attestation_us)
        return self._mos.monitor.seal_local_report(
            eid, enclave.measurement, self._mos.partition.name
        )
