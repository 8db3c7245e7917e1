"""The event core every serving engine runs on.

A serving engine is a set of event sources advanced on one virtual
timeline.  This module holds the three pieces they share:

* :class:`Timers` — keyed timers (at most one due instant per key) on a
  min-heap with lazy deletion: rescheduling or cancelling a key leaves
  its old heap entry behind, to be discarded when it surfaces, and a
  ``schedule`` that finds stale entries outnumbering live keys 3:1
  rebuilds the heap, so ``len(heap) <= max(64, 4 * live keys)`` after
  every schedule.  Keys due at the same instant pop in key order.
* :class:`Cursor` — a schedule sorted up front (an arrival trace, a
  crash list), handed item by item to a handler in time order.
* :func:`drive` — the loop.  Each step jumps to the earliest instant any
  phase has work at, then fires every phase at that instant in the
  order the engine declared them, so a run replays byte-identically.

An optional *scrape* (the telemetry pipeline: ``scrape_interval_us``
and ``scrape(t_us)``) runs as the last phase of an instant.  Its
deadline only wins the next-event race when a real event exists after
it: scrapes subdivide waits and never extend a run.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple


class Timers:
    """Keyed timers: ``schedule`` replaces a key's pending instant."""

    __slots__ = ("_due", "_heap")

    def __init__(self) -> None:
        self._due: Dict[Hashable, float] = {}
        self._heap: List[Tuple[float, Hashable]] = []

    def schedule(self, key: Hashable, at: float) -> None:
        due, heap = self._due, self._heap
        due[key] = at
        heapq.heappush(heap, (at, key))
        if len(heap) > 64 and len(heap) > 4 * len(due):
            # In place: a ``pop_due`` pass in progress holds this list.
            heap[:] = [(t, k) for k, t in due.items()]
            heapq.heapify(heap)

    def cancel(self, key: Hashable) -> None:
        self._due.pop(key, None)

    def get(self, key: Hashable, default: Optional[float] = None) -> Optional[float]:
        return self._due.get(key, default)

    def __contains__(self, key: object) -> bool:
        return key in self._due

    def __len__(self) -> int:
        return len(self._due)

    def items(self):
        """``(key, due)`` pairs of the pending timers, unordered."""
        return self._due.items()

    def peek(self) -> Optional[float]:
        """The earliest pending due instant, or None."""
        heap, due = self._heap, self._due
        while heap:
            at, key = heap[0]
            if due.get(key) == at:
                return at
            heapq.heappop(heap)
        return None

    def pop_due(self, now: float):
        """Remove and yield every key due at or before ``now`` in
        ``(due, key)`` order.  Lazy: a key scheduled or cancelled while
        the caller iterates is seen (or skipped) by the same pass."""
        heap, due = self._heap, self._due
        while heap and heap[0][0] <= now:
            at, key = heapq.heappop(heap)
            if due.get(key) == at:
                del due[key]
                yield key


class Cursor:
    """A time-sorted schedule; a phase of its own (``next_at``/``fire``)."""

    __slots__ = ("_items", "_time_of", "_handle", "_i")

    def __init__(self, items: Sequence, time_of: Callable, handle: Callable) -> None:
        self._items = items
        self._time_of = time_of
        self._handle = handle
        self._i = 0

    def __bool__(self) -> bool:
        """True while items remain."""
        return self._i < len(self._items)

    def next_at(self) -> Optional[float]:
        if self._i < len(self._items):
            return self._time_of(self._items[self._i])
        return None

    def fire(self, now: float) -> None:
        """Hand every item due at or before ``now`` to the handler."""
        items, time_of, handle = self._items, self._time_of, self._handle
        i, n = self._i, len(items)
        while i < n and time_of(items[i]) <= now:
            handle(items[i])
            i += 1
        self._i = i


class Phase(NamedTuple):
    """``fire(now)`` runs the phase; ``next_at()`` is the earliest instant
    it has work at (``next_at=None``: it never has work of its own)."""

    next_at: Optional[Callable[[], Optional[float]]]
    fire: Callable[[float], object]


def drive(phases: Sequence[Phase], scrape, now: float) -> float:
    """Fire ``phases`` (cursors included) in order at every event instant
    from ``now`` on, then the due scrapes; returns the last instant."""
    clocks = [phase.next_at for phase in phases if phase.next_at is not None]
    fires = [phase.fire for phase in phases]
    if scrape is not None:
        interval = scrape.scrape_interval_us
        next_scrape = now + interval
    while True:
        t = None
        for next_at in clocks:
            at = next_at()
            if at is not None and (t is None or at < t):
                t = at
        if t is None:
            return now
        if scrape is not None and next_scrape < t:
            t = next_scrape
        if t > now:
            now = t
        for fire in fires:
            fire(now)
        if scrape is not None:
            while next_scrape <= now:
                scrape.scrape(next_scrape)
                next_scrape += interval
