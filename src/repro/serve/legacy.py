"""The pre-heap serving engine, preserved as a reference implementation.

The raw-speed refactor rebuilt the serving inner loop around priority
heaps (see :mod:`repro.serve.frontend` and :mod:`repro.serve.batcher`).
This module keeps the original O(events · n) scan implementation alive,
verbatim in behaviour, for two jobs:

* the **scheduler equivalence suite** runs the same seeded arrival trace
  through both engines and asserts identical completion order, SLO
  fingerprint and exactly-once audit — the proof that the heap engine
  changed host speed and nothing else;
* the **scale benchmark** (``benchmarks/bench_scale.py``) measures the
  heap engine's requests-simulated-per-wall-clock-second against this
  engine, the recorded trajectory in ``BENCH_scale.json``.

Nothing else should use this module; it is deliberately not exported from
``repro.serve``'s top level beyond :class:`LegacyServingSystem`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dispatch.dispatcher import DispatchError, NoReadyPartition
from repro.secure.partition import PartitionState
from repro.serve.admission import Request
from repro.serve.batcher import Batch
from repro.serve.frontend import ServingReport, ServingSystem
from repro.serve.placement import PartitionScore


class ScanDeadlineBatcher:
    """The pre-heap batcher: per-flush sorts and per-poll full scans.

    Same public API and same observable behaviour as
    :class:`~repro.serve.batcher.DeadlineBatcher`; ``due_at`` re-scans the
    pending list, ``earliest_due`` re-sorts every partition's queue on
    every call, ``flush`` sorts the batch — the cost profile the heap
    engine replaced.
    """

    def __init__(self, *, max_batch: int = 8, max_delay_us: float = 2_000.0) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_delay_us < 0:
            raise ValueError(f"max_delay_us must be non-negative, got {max_delay_us}")
        self.max_batch = max_batch
        self.max_delay_us = max_delay_us
        self._pending: Dict[str, List[Tuple[float, Request]]] = {}
        self.batches_formed = 0
        self.requests_batched = 0
        self._live: Optional[Callable[[str], bool]] = None
        self.compactions = 0
        """Always 0: the scan batcher has no due heap to compact."""

    def set_live_filter(self, live: Optional[Callable[[str], bool]]) -> None:
        """Same contract as the heap batcher: non-live devices never
        surface flush obligations."""
        self._live = live

    def _is_live(self, device_name: str) -> bool:
        live = self._live
        return live is None or live(device_name)

    def add(self, device_name: str, request: Request, now_us: float) -> bool:
        pending = self._pending.setdefault(device_name, [])
        pending.append((now_us, request))
        return len(pending) >= self.max_batch

    def depth(self, device_name: str) -> int:
        return len(self._pending.get(device_name, ()))

    def depths(self) -> Dict[str, int]:
        return {d: len(p) for d, p in self._pending.items() if p}

    def pending_requests(self, device_name: str) -> List[Request]:
        return [r for _, r in self._pending.get(device_name, ())]

    def evict(self, device_name: str) -> List[Request]:
        pending = self._pending.pop(device_name, [])
        return [r for _, r in pending]

    def due_at(self, device_name: str) -> Optional[float]:
        pending = self._pending.get(device_name)
        if not pending:
            return None
        oldest = min(t for t, _ in pending)
        earliest_deadline = min(r.deadline_us for _, r in pending)
        return min(oldest + self.max_delay_us, earliest_deadline)

    def earliest_due(self) -> Optional[Tuple[float, str]]:
        due = [
            (self.due_at(d), d)
            for d, p in sorted(self._pending.items())
            if p and self._is_live(d)
        ]
        due = [(t, d) for t, d in due if t is not None]
        return min(due) if due else None

    def flush(
        self, device_name: str, now_us: float, *, reason: str = ""
    ) -> Optional[Batch]:
        pending = self._pending.pop(device_name, None)
        if not pending:
            return None
        requests = [r for _, r in pending]
        requests.sort(key=lambda r: (r.deadline_us, r.rid))
        self.batches_formed += 1
        self.requests_batched += len(requests)
        return Batch(
            device_name=device_name,
            requests=requests,
            formed_us=now_us,
            reason=reason,
        )

    def due_partitions(self, now_us: float) -> List[str]:
        out = []
        for device_name in sorted(self._pending):
            if not self._is_live(device_name):
                continue
            due = self.due_at(device_name)
            if due is not None and due <= now_us:
                out.append(device_name)
        return out

    @property
    def stats(self) -> Dict[str, object]:
        formed = self.batches_formed
        return {
            "batches_formed": formed,
            "requests_batched": self.requests_batched,
            "mean_occupancy": (
                round(self.requests_batched / formed, 3) if formed else 0.0
            ),
        }


class ScanSpatialPlacer:
    """The pre-incremental placer: rescore every candidate, sort, pick."""

    def __init__(
        self,
        dispatcher,
        *,
        weight_contexts: float = 1.0,
        weight_queue: float = 0.25,
        weight_reserved_per_gib: float = 0.5,
    ) -> None:
        self._dispatcher = dispatcher
        self.weight_contexts = weight_contexts
        self.weight_queue = weight_queue
        self.weight_reserved_per_gib = weight_reserved_per_gib
        self.placements = 0

    def mark_dirty(self, device_name: str) -> None:
        """No cache to invalidate: every placement rescores everything."""

    def forget(self, device_name: str) -> None:
        """No cache to drop either (elastic-fleet retire path)."""

    def score(self, mos, queue_depth: int) -> PartitionScore:
        device = mos.partition.device
        contexts = device.active_contexts() if hasattr(device, "active_contexts") else 0
        reserved = mos.manager.reserved_bytes
        value = (
            self.weight_contexts * contexts
            + self.weight_queue * queue_depth
            + self.weight_reserved_per_gib * (reserved / float(1 << 30))
        )
        return PartitionScore(
            device_name=device.name,
            live_contexts=contexts,
            queue_depth=queue_depth,
            reserved_bytes=reserved,
            score=value,
        )

    def place(
        self,
        request,
        queue_depths,
        *,
        is_ready: Optional[Callable[[object], bool]] = None,
    ):
        if callable(queue_depths):
            depth_of = queue_depths
        else:
            depth_of = lambda name: queue_depths.get(name, 0)  # noqa: E731
        candidates = [
            m for m in self._dispatcher.moses() if m.device_type == request.device_type
        ]
        if request.device_name is not None:
            candidates = [
                m
                for m in candidates
                if m.partition.device.name == request.device_name
            ]
        if not candidates:
            raise DispatchError(
                f"no partition manages a {request.device_type!r} device"
                + (
                    f" named {request.device_name!r}"
                    if request.device_name
                    else ""
                )
            )
        ready = [
            m
            for m in candidates
            if m.partition.state is PartitionState.READY
            and (is_ready is None or is_ready(m))
        ]
        if not ready:
            raise NoReadyPartition(
                f"all {len(candidates)} candidate partition(s) for request "
                f"{request.rid!r} are crashed or recovering"
            )
        scored = [
            (self.score(m, depth_of(m.partition.device.name)), m)
            for m in ready
        ]
        scored.sort(key=lambda pair: (pair[0].score, pair[0].device_name))
        self.placements += 1
        return scored[0][1]


class LegacyServingSystem(ServingSystem):
    """A :class:`~repro.serve.frontend.ServingSystem` running the pre-heap
    scan engine: the original event loop, batcher and placer.

    Shares every downstream code path (admission, SLO accounting, batch
    execution, failover) with the heap engine, so any divergence between
    the two reports is a scheduling-order difference — exactly what the
    equivalence suite is hunting for.
    """

    def __init__(self, system, **kwargs) -> None:
        super().__init__(system, **kwargs)
        self.batcher = ScanDeadlineBatcher(
            max_batch=self.batcher.max_batch,
            max_delay_us=self.batcher.max_delay_us,
        )
        self.placer = ScanSpatialPlacer(system.dispatcher)
        if self._fleet is not None:
            # The heap batcher got the live filter in _ensure_fleet; the
            # scan batcher that just replaced it needs the same view.
            self.batcher.set_live_filter(self._batcher_live)

    def run(
        self,
        arrivals: Iterable[Request],
        *,
        crash_events: Sequence[Tuple[float, str]] = (),
        scale_events: Sequence[Tuple[float, str, str]] = (),
    ) -> ServingReport:
        """The original scan loop: rebuild the event list and re-scan every
        queue on every step.  Same per-instant processing order as the
        heap engine (recovery → fleet-timer → scale → arrival → crash →
        flush), so a replayed scale schedule renders identically here.
        """
        pending = sorted(arrivals, key=lambda r: (r.arrival_us, r.rid))
        crash_queue = sorted(crash_events)
        scale_queue = self._begin_run(scale_events)
        ai = ci = si = 0
        while True:
            self._more_arrivals = ai < len(pending)
            events: List[Tuple[float, int]] = []
            if self._down:
                events.append((min(t for _, t in self._down.items()), 0))
            if ai < len(pending):
                events.append((pending[ai].arrival_us, 1))
            if ci < len(crash_queue):
                events.append((crash_queue[ci][0], 2))
            due = self.batcher.earliest_due()
            if due is not None:
                events.append((due[0], 3))
            if self._fleet is not None:
                if self._boot_at:
                    events.append((min(t for _, t in self._boot_at.items()), 4))
                if self._park_at:
                    events.append((min(t for _, t in self._park_at.items()), 5))
                if self._next_tick_us is not None and self._more_arrivals:
                    events.append((self._next_tick_us, 6))
            if si < len(scale_queue):
                events.append((scale_queue[si][0], 7))
            if not events:
                break
            self._now = max(self._now, min(events)[0])
            self._process_recoveries()
            if self._fleet is not None:
                self._process_fleet_timers()
                while si < len(scale_queue) and scale_queue[si][0] <= self._now:
                    _, action, device = scale_queue[si]
                    self._apply_scale(self._now, action, device)
                    si += 1
                self._process_tick()
            while ai < len(pending) and pending[ai].arrival_us <= self._now:
                self.offer(pending[ai])
                ai += 1
            while ci < len(crash_queue) and crash_queue[ci][0] <= self._now:
                self.crash_partition(crash_queue[ci][1])
                ci += 1
            for device in self.batcher.due_partitions(self._now):
                self._flush(device)
        for request in self._parked:
            self._expire(request)
        self._parked.clear()
        return self.report()

    def _process_recoveries(self) -> None:
        recovered = sorted(
            d for d, until in self._down.items() if until <= self._now
        )
        for device in recovered:
            self._down.cancel(device)
        if recovered and self._parked:
            parked, self._parked = self._parked, []
            for request in parked:
                if request.deadline_us < self._now:
                    self._expire(request)
                else:
                    self._place(request)
