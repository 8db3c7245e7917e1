"""The flight recorder: a bounded ring of recently closed spans.

A partition crash scrubs everything the partition owned — device state,
shared pages, the enclaves themselves — which is precisely when an operator
most wants to know what the partition was doing.  The flight recorder lives
*host-side* in the :class:`~repro.obs.span.SpanRecorder` (the model of the
SPM's own append-only log in secure memory, which a partition crash cannot
touch), so the last N spans always survive the crash; the failover path
snapshots them into ``SpanRecorder.flight_dumps`` before the scrub.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


FLIGHT_CAPACITY = 64
"""Closed spans each span recorder's flight ring keeps."""


class FlightRecorder:
    """Keeps the last ``capacity`` closed spans, oldest evicted first."""

    __slots__ = ("capacity", "_ring", "pushed")

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque = deque(maxlen=capacity)
        self.pushed = 0

    def push(self, span) -> None:
        self._ring.append(span)
        self.pushed += 1

    def snapshot(self) -> Tuple:
        """The ring's contents, oldest first (a stable copy)."""
        return tuple(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._ring)
