"""Deadline-aware batching of enclave invocations.

Requests placed on the same partition ride the partition's *shared*
long-lived sRPC stream instead of paying channel setup (local attestation,
SPM page sharing, dCheck, consumer-thread spawn) per request — the same
amortization move the sRPC fast lanes applied to ring-header accesses,
one layer up.

A partition's pending batch is flushed when it reaches ``max_batch``, when
its oldest request has waited ``max_delay_us``, or when the earliest
deadline among its requests arrives (deadline pressure: waiting any longer
could only create expirations).  Within a batch, requests execute in
earliest-deadline-first order with the request id as the deterministic
tie-break.

Host-speed design: each partition keeps an **EDF heap** keyed
``(deadline, rid, seq)`` plus its running due-time inputs (the oldest
enqueue instant and the minimum deadline only ever tighten between
flushes, and a flush or evict drops the whole queue).  The flush
obligations across partitions are one :class:`~repro.sim.events.Timers`
keyed by partition, the event core every serving engine's timers run on:
``add`` reschedules a partition when its due time tightens, ``flush`` and
``evict`` cancel it, and ``earliest_due``/``due_partitions`` are its
``peek``/``pop_due``.  Fleet liveness is not the batcher's business: the
serving layer places only onto live partitions and guards every flush.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve.admission import Request
from repro.sim.events import Timers

_DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_DATACLASS_SLOTS)
class Batch:
    """One flushed group of requests bound for a single partition."""

    device_name: str
    requests: List[Request]
    formed_us: float
    reason: str = ""
    """Why the batch flushed: ``"full"``, ``"due"``, or ``""`` (unknown)."""

    def __len__(self) -> int:
        return len(self.requests)


class _DeviceQueue:
    """One partition's pending requests between two flushes.

    Requests only ever *join* a queue; removal is whole-queue (flush or
    crash-evict), so the due-time inputs — the oldest enqueue instant and
    the minimum deadline — are exact running minima, no lazy repair needed.
    """

    __slots__ = ("edf", "order", "oldest_us", "min_deadline_us")

    def __init__(self) -> None:
        self.edf: List[Tuple[float, str, int, Request]] = []
        self.order: List[Request] = []
        self.oldest_us = float("inf")
        self.min_deadline_us = float("inf")

    def __len__(self) -> int:
        return len(self.order)


class DeadlineBatcher:
    """Per-partition pending queues with max-batch/max-delay/deadline flush."""

    def __init__(self, *, max_batch: int = 8, max_delay_us: float = 2_000.0) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_delay_us < 0:
            raise ValueError(f"max_delay_us must be non-negative, got {max_delay_us}")
        self.max_batch = max_batch
        self.max_delay_us = max_delay_us
        self._queues: Dict[str, _DeviceQueue] = {}
        self._pending = 0
        """Requests queued over every partition (the sum of the depths)."""
        self._due = Timers()
        """partition -> instant its pending batch must flush."""
        self._seq = 0
        self.batches_formed = 0
        self.requests_batched = 0

    def add(self, device_name: str, request: Request, now_us: float) -> bool:
        """Queue ``request`` for ``device_name``; True if the partition's
        batch is now full and should be flushed immediately."""
        queue = self._queues.get(device_name)
        if queue is None:
            queue = self._queues[device_name] = _DeviceQueue()
        delay = self.max_delay_us
        before = min(queue.oldest_us + delay, queue.min_deadline_us)
        self._seq += 1
        heapq.heappush(
            queue.edf, (request.deadline_us, request.rid, self._seq, request)
        )
        queue.order.append(request)
        self._pending += 1
        if now_us < queue.oldest_us:
            queue.oldest_us = now_us
        if request.deadline_us < queue.min_deadline_us:
            queue.min_deadline_us = request.deadline_us
        due = min(queue.oldest_us + delay, queue.min_deadline_us)
        if due < before:
            self._due.schedule(device_name, due)
        return len(queue.order) >= self.max_batch

    def depth(self, device_name: str) -> int:
        """Pending (batched-but-unflushed) requests for one partition."""
        queue = self._queues.get(device_name)
        return len(queue.order) if queue is not None else 0

    def depths(self) -> Dict[str, int]:
        return {d: len(q.order) for d, q in self._queues.items() if q.order}

    def pending(self) -> int:
        """Pending requests summed over every partition."""
        return self._pending

    def evict(self, device_name: str) -> List[Request]:
        """Drop and return a partition's pending requests (its partition
        crashed; the frontend re-queues them elsewhere)."""
        queue = self._queues.pop(device_name, None)
        if queue is None:
            return []
        self._due.cancel(device_name)
        self._pending -= len(queue.order)
        return list(queue.order)

    def due_at(self, device_name: str) -> Optional[float]:
        """Earliest simulated time at which this partition's batch must
        flush (oldest + max_delay, or the earliest deadline)."""
        return self._due.get(device_name)

    def earliest_due(self) -> Optional[float]:
        """The earliest flush obligation across partitions, or None."""
        return self._due.peek()

    def flush(
        self, device_name: str, now_us: float, *, reason: str = ""
    ) -> Optional[Batch]:
        """Form the batch for ``device_name`` (EDF order), or None."""
        queue = self._queues.pop(device_name, None)
        if queue is None:
            return None
        self._due.cancel(device_name)
        self._pending -= len(queue.order)
        edf = queue.edf
        requests = [heapq.heappop(edf)[3] for _ in range(len(edf))]
        self.batches_formed += 1
        self.requests_batched += len(requests)
        return Batch(
            device_name=device_name,
            requests=requests,
            formed_us=now_us,
            reason=reason,
        )

    def due_partitions(self, now_us: float) -> List[str]:
        """Partitions whose batches must flush at or before ``now_us``,
        sorted.  Their obligations are consumed: the caller flushes (or
        evicts) every partition returned."""
        return sorted(self._due.pop_due(now_us))

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


#: ContinuousBatcher scheduling modes.
MODE_CONTINUOUS = "continuous"
MODE_STATIC = "static"


class _DeviceLanes:
    """One device's sequence lanes: the running set plus the waiting queue."""

    __slots__ = ("running", "waiting")

    def __init__(self) -> None:
        self.running: List[object] = []
        self.waiting: List[Tuple[float, str, int, object]] = []


class ContinuousBatcher:
    """Token-granular batching of autoregressive sequences per device.

    Where the :class:`DeadlineBatcher` forms one-shot request batches, this
    batcher manages long-lived *sequences* (objects exposing ``.request``):
    each device holds up to ``max_running`` resident sequences decoding in
    lock-step iterations, plus a waiting queue ordered by
    ``(arrival_us, rid)``.

    Two modes, selected at construction so a benchmark can compare them on
    the same trace:

    * ``continuous`` (vLLM/Orca-style): finished sequences are evicted at
      the token boundary they finish on, and waiting sequences are
      admitted into the freed slots *at any boundary* — the iteration's
      fixed launch overhead always amortizes over a full batch.
    * ``static``: the device admits a batch only when its running set is
      empty and then runs it to completion — the classic request-batching
      baseline, where a long sequence holds every freed slot hostage.

    The batcher is pure bookkeeping: it never touches the clock, so the
    serving engine's virtual timeline stays the single source of time.
    """

    def __init__(
        self, *, max_running: int = 8, mode: str = MODE_CONTINUOUS
    ) -> None:
        if max_running < 1:
            raise ValueError(f"max_running must be at least 1, got {max_running}")
        if mode not in (MODE_CONTINUOUS, MODE_STATIC):
            raise ValueError(
                f"mode must be {MODE_CONTINUOUS!r} or {MODE_STATIC!r}, got {mode!r}"
            )
        self.max_running = max_running
        self.mode = mode
        self._lanes: Dict[str, _DeviceLanes] = {}
        self._seq = 0
        self.admitted_mid_batch = 0
        """Sequences admitted into a boundary where others kept running —
        zero by construction in static mode."""
        self.evictions = 0

    def _lane(self, device_name: str) -> _DeviceLanes:
        lane = self._lanes.get(device_name)
        if lane is None:
            lane = self._lanes[device_name] = _DeviceLanes()
        return lane

    def add(self, device_name: str, sequence) -> None:
        """Queue a sequence for ``device_name`` (joins at the next boundary)."""
        self._seq += 1
        request = sequence.request
        heapq.heappush(
            self._lane(device_name).waiting,
            (request.arrival_us, request.rid, self._seq, sequence),
        )

    def admit(self, device_name: str) -> List[object]:
        """Move waiting sequences into free running slots (token boundary).

        Continuous mode fills every free slot; static mode admits only
        into an *empty* running set (run-to-completion).  Returns the
        newly admitted sequences, in ``(arrival_us, rid)`` order.
        """
        lane = self._lanes.get(device_name)
        if lane is None or not lane.waiting:
            return []
        if self.mode == MODE_STATIC and lane.running:
            return []
        admitted: List[object] = []
        while lane.waiting and len(lane.running) < self.max_running:
            sequence = heapq.heappop(lane.waiting)[3]
            lane.running.append(sequence)
            admitted.append(sequence)
        if admitted and len(lane.running) > len(admitted):
            self.admitted_mid_batch += len(admitted)
        return admitted

    def finish(self, device_name: str, sequence) -> None:
        """Evict one finished (or preempted-elsewhere) running sequence."""
        lane = self._lanes.get(device_name)
        if lane is not None and sequence in lane.running:
            lane.running.remove(sequence)
            self.evictions += 1

    def running(self, device_name: str) -> List[object]:
        lane = self._lanes.get(device_name)
        return list(lane.running) if lane is not None else []

    def evict_device(self, device_name: str) -> List[object]:
        """Drop and return *all* of a crashed device's sequences, running
        first (in residence order) then waiting (in admission order)."""
        lane = self._lanes.pop(device_name, None)
        if lane is None:
            return []
        waiting = [heapq.heappop(lane.waiting)[3] for _ in range(len(lane.waiting))]
        return lane.running + waiting

    def depth(self, device_name: str) -> int:
        """Resident + waiting sequences (the placement queue-depth signal)."""
        lane = self._lanes.get(device_name)
        if lane is None:
            return 0
        return len(lane.running) + len(lane.waiting)

    def depths(self) -> Dict[str, int]:
        return {
            d: len(lane.running) + len(lane.waiting)
            for d, lane in self._lanes.items()
            if lane.running or lane.waiting
        }

    @property
    def stats(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "max_running": self.max_running,
            "admitted_mid_batch": self.admitted_mid_batch,
            "evictions": self.evictions,
        }
