"""Causal spans across mEnclave boundaries.

CRONUS assembles one logical computation out of many isolated mEnclaves
talking over sRPC, so no single component ever sees a whole request.  The
:class:`SpanRecorder` is the host-side collector every layer reports into:
the dispatcher opens a span when it routes a request, the sRPC channel
carries the caller's :class:`SpanContext` *in-band* inside the serialized
record, the consumer side opens a child span in the callee's partition, and
the SPM parents its proceed-trap recovery phases under whatever trace was
last active on the failed partition — so one request yields a single
parented span tree crossing partitions, including across a crash.

Determinism contract (see ``docs/observability.md``):

* Recording is **inert by default** (``enabled = False``) and recording
  never advances the simulated clock, so every simulated-time table is
  byte-identical with or without observability.
* All identifiers (trace ids, span ids, the global ``seq``) come from
  monotonic counters, never from wall clock or unseeded randomness, so two
  same-seed runs produce identical span trees and identical exported JSON.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import chain
from typing import Any, Deque, Dict, Iterator, List, Optional, Set, Tuple

FLIGHT_CAPACITY = 64
"""Closed spans each span recorder's flight ring keeps."""


class SpanContext:
    """The in-band propagated identity of one span.

    ``seq`` is a recorder-global monotonic sequence number: spans sharing
    one simulated timestamp still have a stable total order.

    A hand-rolled slotted class rather than a frozen dataclass: one
    context is allocated per recorded span, so enabled-observability
    serving runs mint these by the million, and the frozen-dataclass
    ``object.__setattr__`` constructor is measurably slower on that
    path.  Identity comparison (the only one the recorder uses) is the
    semantics: no two live contexts ever share a ``seq``.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "seq")

    def __init__(
        self, trace_id: int, span_id: int, parent_id: Optional[int], seq: int
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq

    def __repr__(self) -> str:
        return (
            f"SpanContext(trace_id={self.trace_id}, span_id={self.span_id}, "
            f"parent_id={self.parent_id}, seq={self.seq})"
        )

    def wire(self) -> Tuple[int, int]:
        """The (trace_id, span_id) pair carried inside sRPC records."""
        return (self.trace_id, self.span_id)


class Span:
    """One recorded operation: a named interval inside a trace."""

    __slots__ = (
        "context", "name", "category", "partition", "enclave",
        "start_us", "end_us", "attrs",
    )

    def __init__(
        self,
        context: SpanContext,
        name: str,
        category: str,
        partition: Optional[str],
        enclave: Optional[str],
        start_us: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.context = context
        self.name = name
        self.category = category
        self.partition = partition
        self.enclave = enclave
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        return (self.end_us if self.end_us is not None else self.start_us) - self.start_us

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.context.trace_id}, "
            f"id={self.context.span_id}, parent={self.context.parent_id}, "
            f"[{self.start_us:.1f}, {self.end_us if self.end_us is not None else '...'}])"
        )


class _NullSpan:
    """Returned by a disabled recorder so call sites need no None checks."""

    __slots__ = ()
    context = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_SPAN"


NO_SPAN = _NullSpan()


class SpanRecorder:
    """Collects causal spans when enabled; free when disabled.

    Every span lives once, in its trace's list (``_by_trace``), so a tail
    sampler sizes or drops a whole trace without a scan; ``spans()``
    merges the lists back into recording order by ``seq``.  Besides, the
    recorder keeps:

    * a live-span count bounded by ``capacity`` (with a ``dropped``
      counter like the event tracer's),
    * a per-partition map of the *last context active on that partition*
      (every span opened or recorded with a ``partition`` updates it),
      which the SPM reads through ``partition_context`` to parent
      recovery spans under the request that was running when the
      partition died,
    * the flight ring (``flight``) of the last :data:`FLIGHT_CAPACITY`
      closed spans.  It lives host-side (the model of the SPM's own log
      in secure memory), so the failover path's ``dump_flight`` saves the
      spans leading up to a partition crash before the scrub.
    """

    def __init__(
        self,
        clock,
        *,
        enabled: bool = False,
        capacity: int = 250_000,
    ) -> None:
        self._clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self._stack: List[SpanContext] = []
        self._next_trace = 1
        self._next_span = 1
        self._seq = 0
        self.dropped = 0
        self.flight: Deque[Span] = deque(maxlen=FLIGHT_CAPACITY)
        self._partition_last: Dict[str, SpanContext] = {}
        self.flight_dumps: List[Tuple[float, str, str, Tuple[Span, ...]]] = []
        self._by_trace: Dict[int, List[Span]] = {}
        self._live_spans = 0
        # Traces the tail sampler dropped, and the spans dropped with them
        # since the marks were last cleared (see discard_trace).
        self._discarded: Set[int] = set()
        self._marked_spans = 0
        self.discarded_spans = 0
        self.discarded_traces = 0

    # -- context plumbing --------------------------------------------------
    def _resolve_parent(self, parent) -> Optional[SpanContext]:
        if parent is None:
            return self._stack[-1] if self._stack else None
        if isinstance(parent, Span):
            return parent.context
        if isinstance(parent, SpanContext):
            return parent
        if isinstance(parent, tuple):  # the in-band (trace_id, span_id) pair
            return SpanContext(trace_id=parent[0], span_id=parent[1], parent_id=None, seq=-1)
        return None

    def _make_context(self, parent: Optional[SpanContext]) -> SpanContext:
        self._seq += 1
        span_id = self._next_span
        self._next_span += 1
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return SpanContext(trace_id, span_id, parent_id, self._seq)

    def current(self) -> Optional[SpanContext]:
        """The innermost open span context, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def attach(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Context manager pushing a *foreign* context (e.g. a task's root
        span) so spans opened inside parent under it."""
        if not self.enabled or context is None:
            yield
            return
        stack = self._stack
        stack.append(context)
        try:
            yield
        finally:
            if context in stack:
                # Tolerate spans abandoned by exceptions above us.
                while stack:
                    if stack.pop() is context:
                        break

    # -- recording ---------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        category: str = "",
        parent=None,
        partition: Optional[str] = None,
        enclave: Optional[str] = None,
        ts: Optional[float] = None,
        detached: bool = False,
        **attrs: Any,
    ):
        """Open a span and push it onto the context stack.

        Must be balanced by :meth:`end`.  Returns :data:`NO_SPAN` when
        disabled or over capacity — :meth:`end` accepts it silently.

        ``detached=True`` skips the stack push: for long-lived roots (a
        task that interleaves with others) whose children are adopted
        explicitly via :meth:`attach` instead of lexical nesting.
        """
        if not self.enabled:
            return NO_SPAN
        span = self._admit(
            name, category, parent, partition, enclave,
            self._clock.now if ts is None else ts, attrs,
        )
        if span is not NO_SPAN and not detached:
            self._stack.append(span.context)
        return span

    def end(self, span, *, ts: Optional[float] = None, **attrs: Any) -> None:
        """Close a span opened with :meth:`begin` (LIFO; tolerant of spans
        abandoned by an exception unwinding several frames at once)."""
        if span is NO_SPAN or not isinstance(span, Span):
            return
        if span.context in self._stack:
            # LIFO pop; a detached (never-pushed) span leaves the stack
            # alone, and spans abandoned by an exception unwinding several
            # frames at once are popped along the way.
            while self._stack:
                if self._stack.pop() is span.context:
                    break
        span.end_us = self._clock.now if ts is None else ts
        if attrs:
            span.attrs.update(attrs)
        self.flight.append(span)

    def record(
        self,
        name: str,
        *,
        start_us: float,
        end_us: float,
        category: str = "",
        parent=None,
        partition: Optional[str] = None,
        enclave: Optional[str] = None,
        **attrs: Any,
    ):
        """Record an already-finished interval (no stack interaction) —
        e.g. the consumer-timeline execution window of an sRPC record,
        whose start/end are known only after the submit."""
        if not self.enabled:
            return NO_SPAN
        span = self._admit(name, category, parent, partition, enclave, start_us, attrs)
        if span is not NO_SPAN:
            span.end_us = end_us
            self.flight.append(span)
        return span

    def _admit(self, name, category, parent, partition, enclave, start_us, attrs):
        """Store one new span in its trace: the admission path of
        :meth:`begin` and :meth:`record`.  :data:`NO_SPAN` when over
        capacity or for a late span of a discarded trace."""
        if self._live_spans >= self.capacity:
            self.dropped += 1
            return NO_SPAN
        parent_ctx = self._resolve_parent(parent)
        if parent_ctx is not None and parent_ctx.trace_id in self._discarded:
            # A late child of a trace the sampler already dropped: dropped
            # too while the mark is live (see discard_trace).
            self.discarded_spans += 1
            return NO_SPAN
        ctx = self._make_context(parent_ctx)
        # ``attrs`` is already a fresh per-call kwargs dict: no copy.
        span = Span(ctx, name, category, partition, enclave, start_us, attrs)
        self._by_trace.setdefault(ctx.trace_id, []).append(span)
        self._live_spans += 1
        if partition is not None:
            self._partition_last[partition] = ctx
        return span

    def event(
        self,
        name: str,
        *,
        category: str = "",
        parent=None,
        partition: Optional[str] = None,
        enclave: Optional[str] = None,
        ts: Optional[float] = None,
        **attrs: Any,
    ):
        """A zero-duration span (instantaneous marker)."""
        if not self.enabled:
            return NO_SPAN
        when = self._clock.now if ts is None else ts
        return self.record(
            name, start_us=when, end_us=when, category=category, parent=parent,
            partition=partition, enclave=enclave, **attrs,
        )

    # -- partition activity (crash parenting) ------------------------------
    def partition_context(self, partition: str) -> Optional[SpanContext]:
        return self._partition_last.get(partition)

    def dump_flight(self, partition: str, reason: str) -> Tuple[Span, ...]:
        """Snapshot the flight ring into ``flight_dumps`` (the failover
        path calls this before scrubbing a crashed partition, so the last
        N spans leading up to the crash survive it)."""
        snapshot = tuple(self.flight)
        if self.enabled:
            self.flight_dumps.append((self._clock.now, partition, reason, snapshot))
        return snapshot

    # -- tail sampling -----------------------------------------------------
    def trace_spans(self, trace_id: int) -> Tuple[Span, ...]:
        """All spans of one trace, in recording order (O(trace size))."""
        return tuple(self._by_trace.get(trace_id, ()))

    def discard_trace(self, trace_id: int) -> int:
        """Drop a whole trace (a tail sampler's negative retain decision).

        The trace stays marked discarded, so late spans arriving for it
        are dropped by :meth:`begin`/:meth:`record` (counted in
        ``discarded_spans``), until the spans discarded under the live
        marks reach both 512 and the live-span count; then every mark
        clears and a late span starts a fresh ``_by_trace`` entry.
        Returns the number of spans discarded."""
        spans = self._by_trace.pop(trace_id, None)
        if spans is None:
            return 0
        count = len(spans)
        self._live_spans -= count
        self._discarded.add(trace_id)
        self._marked_spans += count
        self.discarded_spans += count
        self.discarded_traces += 1
        if self._marked_spans >= 512 and self._marked_spans >= self._live_spans:
            self._discarded.clear()
            self._marked_spans = 0
        return count

    # -- introspection -----------------------------------------------------
    def spans(
        self,
        *,
        trace_id: Optional[int] = None,
        category: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Tuple[Span, ...]:
        if trace_id is not None:
            out: List[Span] = list(self._by_trace.get(trace_id, ()))
        else:
            out = sorted(
                chain.from_iterable(self._by_trace.values()),
                key=lambda span: span.context.seq,
            )
        if category is not None:
            out = [s for s in out if s.category == category]
        if name is not None:
            out = [s for s in out if s.name == name]
        return tuple(out)

    def clear(self) -> None:
        self._stack.clear()
        self._partition_last.clear()
        self.flight_dumps.clear()
        self.flight.clear()
        self.dropped = 0
        self._by_trace.clear()
        self._live_spans = 0
        self._discarded.clear()
        self._marked_spans = 0
        self.discarded_spans = 0
        self.discarded_traces = 0

    def __len__(self) -> int:
        return self._live_spans
