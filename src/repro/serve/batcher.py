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

Host-speed design (the raw-speed engine refactor): each partition keeps an
**EDF heap** keyed ``(deadline, rid, seq)`` plus an O(1) incrementally
maintained due time (oldest enqueue instant and minimum deadline only ever
tighten between flushes, and a flush or evict drops the whole queue), and
a **global due-time heap with lazy deletion** orders the flush obligations
across partitions.  ``earliest_due`` is O(1) amortized and
``due_partitions`` early-outs without touching any per-partition state
when nothing is due — the pre-heap implementation re-sorted every pending
queue on every poll of the serving loop, which made one simulated second
cost O(events · pending) host work.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.admission import Request

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
        self._due_heap: List[Tuple[float, str]] = []
        """(due_us, device) flush obligations; entries go stale when a
        queue flushes, evicts, or tightens its due time (lazy deletion)."""
        self._seq = 0
        self.batches_formed = 0
        self.requests_batched = 0
        self._live: Optional[Callable[[str], bool]] = None
        self.compactions = 0
        """Due-heap rebuilds (kept off ``stats`` — engine-comparable)."""

    def set_live_filter(self, live: Optional[Callable[[str], bool]]) -> None:
        """Install the serving layer's device-liveness view.

        With an elastic fleet, a retired or crashed device's stale
        ``(due_us, device)`` heap entries must never surface as flush
        obligations — popping one in the serving loop's flush phase would
        resurrect a dead device name with a fresh worker.  Entries whose
        device fails the filter are treated as stale and discarded.
        """
        self._live = live

    def _is_live(self, device_name: str) -> bool:
        live = self._live
        return live is None or live(device_name)

    def add(self, device_name: str, request: Request, now_us: float) -> bool:
        """Queue ``request`` for ``device_name``; True if the partition's
        batch is now full and should be flushed immediately."""
        queue = self._queues.get(device_name)
        if queue is None:
            queue = self._queues[device_name] = _DeviceQueue()
        before = self._queue_due(queue)
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
        due = self._queue_due(queue)
        if due < before:
            heap = self._due_heap
            heapq.heappush(heap, (due, device_name))
            # Every tightening pushes a fresh entry and strands the old
            # one, so tight-deadline churn grows the heap without bound
            # unless the stale fraction is compacted away.  The trigger
            # keeps the invariant len(heap) <= max(64, 4 * live queues).
            if len(heap) > 64 and len(heap) > 4 * len(self._queues):
                self._compact()
        return len(queue.order) >= self.max_batch

    def _compact(self) -> None:
        """Rebuild the due heap from ground truth, dropping stale entries.

        O(live queues); amortized free because at least 3/4 of the
        entries dropped were stale pushes that already cost O(log n).
        """
        self._due_heap = [
            (self._queue_due(queue), device)
            for device, queue in self._queues.items()
            if queue.order and self._is_live(device)
        ]
        heapq.heapify(self._due_heap)
        self.compactions += 1

    def _queue_due(self, queue: _DeviceQueue) -> float:
        return min(queue.oldest_us + self.max_delay_us, queue.min_deadline_us)

    def depth(self, device_name: str) -> int:
        """Pending (batched-but-unflushed) requests for one partition."""
        queue = self._queues.get(device_name)
        return len(queue.order) if queue is not None else 0

    def depths(self) -> Dict[str, int]:
        return {d: len(q.order) for d, q in self._queues.items() if q.order}

    def pending(self) -> int:
        """Pending requests summed over every partition."""
        return self._pending

    def pending_requests(self, device_name: str) -> List[Request]:
        """The pending requests for one partition (crash re-queue path)."""
        queue = self._queues.get(device_name)
        return list(queue.order) if queue is not None else []

    def evict(self, device_name: str) -> List[Request]:
        """Drop and return a partition's pending requests (its partition
        crashed; the frontend re-queues them elsewhere)."""
        queue = self._queues.pop(device_name, None)
        if queue is None:
            return []
        self._pending -= len(queue.order)
        return list(queue.order)

    def due_at(self, device_name: str) -> Optional[float]:
        """Earliest simulated time at which this partition's batch must
        flush (oldest + max_delay, or the earliest deadline)."""
        queue = self._queues.get(device_name)
        if queue is None or not queue.order:
            return None
        return self._queue_due(queue)

    def earliest_due(self) -> Optional[Tuple[float, str]]:
        """The next (time, partition) flush obligation across partitions.

        O(1) amortized: stale heap entries (their queue flushed, evicted,
        or tightened since the push) are discarded as they surface.
        """
        heap = self._due_heap
        while heap:
            due, device = heap[0]
            queue = self._queues.get(device)
            if (
                queue is not None
                and queue.order
                and self._queue_due(queue) == due
                and self._is_live(device)
            ):
                return (due, device)
            heapq.heappop(heap)
        return None

    def flush(
        self, device_name: str, now_us: float, *, reason: str = ""
    ) -> Optional[Batch]:
        """Form the batch for ``device_name`` (EDF order), or None."""
        queue = self._queues.pop(device_name, None)
        if queue is None or not queue.order:
            return None
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
        """Partitions whose batches must flush at or before ``now_us``.

        Early-outs via the due heap's minimum — the serving loop polls
        this on every event, and almost every poll finds nothing due, so
        the pre-heap full re-sort of ``self._pending`` was pure overhead.
        Still-valid obligations are re-pushed: the caller flushes them,
        which is what finally retires their heap entries.
        """
        heap = self._due_heap
        keep: List[Tuple[float, str]] = []
        out: List[str] = []
        seen = set()
        while heap and heap[0][0] <= now_us:
            due, device = heapq.heappop(heap)
            queue = self._queues.get(device)
            if (
                queue is None
                or not queue.order
                or self._queue_due(queue) != due
                or not self._is_live(device)
            ):
                continue  # stale (lazy deletion)
            keep.append((due, device))
            if device not in seen:
                seen.add(device)
                out.append(device)
        for entry in keep:
            heapq.heappush(heap, entry)
        out.sort()
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
