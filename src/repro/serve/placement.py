"""Spatial-sharing-aware placement of requests onto partitions.

The dispatcher's single ``reserved_bytes`` heuristic is blind to the two
quantities that actually govern multi-tenant accelerator latency in the
paper's model: how many live contexts share the device (MPS utilization
degrades with tenant count, section V / figure 11a) and how much work is
already queued ahead of the new request.  The placer scores every READY
candidate partition on all three signals and picks the minimum, with the
partition name as a deterministic tie-break; pinned requests bypass
scoring but still respect readiness.

Host-speed design: the context and reserved-bytes score terms come from
attribute chains deep in the mEnclave stack, and they only change when the
serving layer *does something* to the partition — executes a batch on it,
crashes it, or recovers it.  Scoring is always incremental: those terms
are cached per device and recomputed only for devices in the dirty set
(``mark_dirty``), so a placement is a running-min pass over cached floats
plus one O(1) queue-depth lookup per candidate, instead of rescoring every
partition through the attribute chains and sorting the result.  The
floating-point evaluation order of the score is kept exactly as the full
recompute's (the frozen scan placer in :mod:`repro.serve.legacy`), so
incremental and full scoring are bit-equal; ``audit_parity`` checks it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dispatch.dispatcher import DispatchError, EnclaveDispatcher, NoReadyPartition
from repro.secure.partition import PartitionState

WEIGHT_CONTEXTS = 1.0
"""Score per live context sharing the device."""
WEIGHT_QUEUE = 0.25
"""Score per request already queued on the device."""
WEIGHT_RESERVED_PER_GIB = 0.5
"""Score per GiB the device's mOS has reserved."""


class SpatialPlacer:
    """Scores partitions by live contexts, queue depth and reserved bytes."""

    def __init__(self, dispatcher: EnclaveDispatcher) -> None:
        self._dispatcher = dispatcher
        self.placements = 0
        self._registered = -1
        """Dispatcher registration count the candidate index was built at."""
        self._by_type: Dict[str, List[object]] = {}
        self._by_name: Dict[str, object] = {}
        self._dirty: Set[str] = set()
        self._cached: Dict[str, Tuple[float, float, int, int]] = {}
        """device -> (contexts_term, reserved_term, contexts, reserved)."""

    # -- candidate index ---------------------------------------------------
    def _sync(self) -> None:
        """Rebuild the device indexes when the dispatcher learned about new
        partitions (registration is append-only)."""
        registered = self._dispatcher.registered
        if registered == self._registered:
            return
        self._registered = registered
        self._by_type = {}
        self._by_name = {}
        for mos in self._dispatcher.moses():
            name = mos.partition.device.name
            # Candidates sorted by device name so a running-min pass with a
            # strict `<` reproduces the (score, name) sort order exactly.
            self._by_type.setdefault(mos.device_type, []).append(mos)
            self._by_name[name] = mos
            self._dirty.add(name)
        for candidates in self._by_type.values():
            candidates.sort(key=lambda m: m.partition.device.name)

    def mark_dirty(self, device_name: str) -> None:
        """Invalidate one device's cached context/reserved score terms.

        The frontend calls this after anything that can move them: a batch
        executed on the device, a crash, a recovery.
        """
        self._dirty.add(device_name)

    def forget(self, device_name: str) -> None:
        """Drop a device's cached terms entirely (it left the live fleet).

        A retired partition's runtime is closed and its mOS may recover
        into a different reservation shape; the next placement that
        considers the device recomputes from scratch.
        """
        self._cached.pop(device_name, None)
        self._dirty.discard(device_name)

    def audit_parity(self, depth_of: Callable[[str], int]) -> List[str]:
        """Compare every clean cached score term against a fresh recompute.

        Returns divergence descriptions (empty means bit-exact parity
        between incremental and full scoring).  Devices in the dirty set
        are skipped — they are *known* stale and recompute before their
        next use; a divergence on a clean entry is the real bug: some
        mutation path (e.g. request expiry releasing reserved bytes)
        forgot to ``mark_dirty``.
        """
        self._sync()
        problems: List[str] = []
        for name in sorted(self._cached):
            if name in self._dirty:
                continue
            mos = self._by_name.get(name)
            if mos is None:
                problems.append(f"{name}: cached terms for an unknown device")
                continue
            fresh = _fresh_terms(mos)
            cached = self._cached[name]
            if cached != fresh:
                problems.append(f"{name}: cached terms {cached!r} != fresh {fresh!r}")
                continue
            depth = depth_of(name)
            cached_score = (cached[0] + WEIGHT_QUEUE * depth) + cached[1]
            fresh_score = (fresh[0] + WEIGHT_QUEUE * depth) + fresh[1]
            if cached_score != fresh_score:
                problems.append(
                    f"{name}: incremental score {cached_score!r} != "
                    f"full {fresh_score!r}"
                )
        return problems

    def _terms(self, mos) -> Tuple[float, float, int, int]:
        """The cached (contexts_term, reserved_term) pair for one device."""
        name = mos.partition.device.name
        if name in self._dirty or name not in self._cached:
            self._cached[name] = _fresh_terms(mos)
            self._dirty.discard(name)
        return self._cached[name]

    # -- scoring -----------------------------------------------------------
    def place(
        self,
        request,
        depth_of: Callable[[str], int],
        *,
        is_ready: Optional[Callable[[object], bool]] = None,
    ):
        """Pick the mOS for ``request``; returns the chosen MicroOS.

        ``depth_of`` is an O(1) device name -> queued requests lookup
        (the frontend passes its batcher-plus-in-flight depth).

        ``is_ready`` lets the frontend overlay its own availability view
        (a partition inside its background-recovery window is READY in the
        SPM's eyes but not yet servable).  Raises :class:`NoReadyPartition`
        when candidates exist but none is available — the caller parks the
        request until a recovery completes — and plain
        :class:`~repro.dispatch.dispatcher.DispatchError` when no
        partition matches at all.
        """
        self._sync()
        candidates = self._by_type.get(request.device_type, ())
        if request.device_name is not None:
            pinned = self._by_name.get(request.device_name)
            candidates = (
                [pinned]
                if pinned is not None and pinned.device_type == request.device_type
                else []
            )
        if not candidates:
            raise DispatchError(
                f"no partition manages a {request.device_type!r} device"
                + (
                    f" named {request.device_name!r}"
                    if request.device_name
                    else ""
                )
            )
        best = None
        best_score = 0.0
        n_candidates = 0
        weight_queue = WEIGHT_QUEUE
        for mos in candidates:
            n_candidates += 1
            if mos.partition.state is not PartitionState.READY:
                continue
            if is_ready is not None and not is_ready(mos):
                continue
            contexts_term, reserved_term, _, _ = self._terms(mos)
            # The scan placer's FP evaluation order: (A + B) + C.
            name = mos.partition.device.name
            value = (
                contexts_term + weight_queue * depth_of(name)
            ) + reserved_term
            # Candidates iterate in device-name order, so strict `<` keeps
            # the first (lowest-named) of any score tie — the legacy
            # (score, device_name) sort's choice.
            if best is None or value < best_score:
                best = mos
                best_score = value
        if best is None:
            raise NoReadyPartition(
                f"all {n_candidates} candidate partition(s) for request "
                f"{request.rid!r} are crashed or recovering"
            )
        self.placements += 1
        return best


def _fresh_terms(mos) -> Tuple[float, float, int, int]:
    """(contexts_term, reserved_term, contexts, reserved) recomputed
    through the mEnclave attribute chains."""
    device = mos.partition.device
    contexts = device.active_contexts() if hasattr(device, "active_contexts") else 0
    reserved = mos.manager.reserved_bytes
    return (
        WEIGHT_CONTEXTS * contexts,
        WEIGHT_RESERVED_PER_GIB * (reserved / float(1 << 30)),
        contexts,
        reserved,
    )
