"""The Enclave Dispatcher.

Runs in the normal world and "determines which partition is used to handle
an mEnclave request from an application ... records the device type and
configurations, mOS images, and usable resources in each partition"
(paper section III-A).  It is *untrusted*: a malicious dispatcher can route
a request to the wrong partition, and CRONUS's ownership assurance (the
manifest device-type check plus the creation-time DH binding) must catch
it — see the attack tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.mos.microos import MicroOS
from repro.secure.partition import PartitionState


class DispatchError(Exception):
    """No partition can serve the request."""


class NoReadyPartition(DispatchError):
    """Matching partitions exist, but every one is crashed or restarting.

    Distinct from a plain :class:`DispatchError` (no such device at all) so
    callers — the serving layer in particular — can park the request until
    recovery completes instead of failing it permanently.
    """


class EnclaveDispatcher:
    """Device-type to mOS routing table."""

    def __init__(self) -> None:
        self._moses: List[MicroOS] = []
        self._parked: Set[str] = set()
        """Device names withdrawn from routing by the management plane
        (the serving autoscaler parks retired partitions here)."""

    def register(self, mos: MicroOS) -> None:
        self._moses.append(mos)

    def park(self, device_name: str) -> None:
        """Withdraw a device from routing (elastic scale-down).

        Parking is a dispatcher-local bookkeeping bit, not a partition
        state change: the mOS stays registered and its partition may still
        be READY, but :meth:`partition_for` stops offering it.  Idempotent.
        """
        self._parked.add(device_name)

    def unpark(self, device_name: str) -> None:
        """Return a parked device to the routing table.  Idempotent."""
        self._parked.discard(device_name)

    @property
    def parked(self) -> frozenset:
        return frozenset(self._parked)

    @property
    def registered(self) -> int:
        """How many mOSes have been registered (registration is
        append-only, so this doubles as a cheap change-detection version
        for callers that index the routing table — the serving placer)."""
        return len(self._moses)

    def moses(self) -> List[MicroOS]:
        return list(self._moses)

    def mos_named(self, name: str) -> MicroOS:
        for mos in self._moses:
            if mos.name == name:
                return mos
        raise DispatchError(f"no mOS named {name!r}")

    def partition_for(
        self, device_type: str, *, device_name: Optional[str] = None
    ) -> MicroOS:
        """Pick the mOS serving ``device_type``.

        With ``device_name`` the caller pins a specific accelerator (e.g.
        'gpu1' for data-parallel training); otherwise the least-loaded
        READY matching partition wins, with the partition name as a stable
        tie-break so equal-load dispatch is deterministic.  Raises
        :class:`NoReadyPartition` when candidates exist but all are
        crashed — routing to a dead partition would only trade a dispatch
        error for a later peer-failure signal.
        """
        candidates = [m for m in self._moses if m.device_type == device_type]
        if device_name is not None:
            candidates = [m for m in candidates if m.partition.device.name == device_name]
        if not candidates:
            raise DispatchError(
                f"no partition manages a {device_type!r} device"
                + (f" named {device_name!r}" if device_name else "")
            )
        ready = [
            m
            for m in candidates
            if m.partition.state is PartitionState.READY
            and m.partition.device.name not in self._parked
        ]
        if not ready:
            raise NoReadyPartition(
                f"all {len(candidates)} partition(s) for device type "
                f"{device_type!r}"
                + (f" named {device_name!r}" if device_name else "")
                + " are crashed, restarting or parked"
            )
        choice = min(ready, key=lambda m: (m.manager.reserved_bytes, m.partition.name))
        platform = choice.platform
        platform.obs.event(
            "dispatch.route", category="dispatch",
            partition=choice.partition.name,
            device_type=device_type, device=choice.partition.device.name,
        )
        platform.metrics.counter("dispatch", "routed").inc()
        platform.metrics.counter(
            "dispatch", f"routed_to:{choice.partition.name}"
        ).inc()
        return choice

    def resources(self) -> Dict[str, Dict[str, object]]:
        """The dispatcher's bookkeeping view (device type, usable memory)."""
        out: Dict[str, Dict[str, object]] = {}
        for mos in self._moses:
            device = mos.partition.device
            out[mos.name] = {
                "device": device.name,
                "device_type": mos.device_type,
                "memory_bytes": device.memory_bytes,
                "reserved_bytes": mos.manager.reserved_bytes,
                "state": mos.partition.state.value,
                "restarts": mos.partition.restarts,
                "parked": device.name in self._parked,
            }
        return out
