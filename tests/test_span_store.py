"""Property test of the span recorder's store against a reference model.

One :class:`SpanRecorder` with a small capacity replays a random mix of
``begin``/``end``/``record``/``event`` across a few traces, late spans
parented by in-band ``wire()`` tuples, and frequent ``discard_trace``
calls.  After every step the recorder must agree with the model:

* ``spans()`` is in strictly increasing ``seq`` order (recording order);
* ``len(recorder) == len(recorder.spans())``, and both equal the model's
  live-span count;
* ``trace_spans(t)`` equals the ``spans()`` entries of trace ``t``;
* a new span is ``NO_SPAN`` exactly when the model says it is: over
  capacity (counted in ``dropped``), or a late span of a discarded trace
  while that trace's mark is live (counted in ``discarded_spans``).

The mark rule being modelled: a discarded trace stays marked until the
spans discarded under the live marks reach both 512 and the live-span
count; then every mark clears and a late span starts the trace afresh.
"""

from hypothesis import example, given, settings, strategies as st

from repro.obs.span import NO_SPAN, SpanRecorder
from repro.sim import SimClock

CAPACITY = 48
SLOTS = 3
STEPS = 600
MARK_FLOOR = 512


class StoreModel:
    """What the recorder should hold: live span seqs per trace, the
    discard marks, the context stack and the drop counters."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.traces = {}
        self.marks = set()
        self.marked_spans = 0
        self.stack = []
        self.dropped = 0
        self.discarded_spans = 0
        self.clears = 0

    def live(self) -> int:
        return sum(len(seqs) for seqs in self.traces.values())

    def admit(self, trace_id, span) -> None:
        """Check one begin/record/event outcome for a parent in
        ``trace_id`` (None: a new trace) and file the span."""
        if self.live() >= self.capacity:
            assert span is NO_SPAN
            self.dropped += 1
        elif trace_id in self.marks:
            assert span is NO_SPAN
            self.discarded_spans += 1
        else:
            assert span is not NO_SPAN
            if trace_id is not None:
                assert span.context.trace_id == trace_id
            self.traces.setdefault(span.context.trace_id, []).append(span.context.seq)

    def discard(self, trace_id, returned: int) -> None:
        seqs = self.traces.pop(trace_id, None)
        if seqs is None:
            assert returned == 0
            return
        assert returned == len(seqs)
        self.marks.add(trace_id)
        self.marked_spans += len(seqs)
        self.discarded_spans += len(seqs)
        if self.marked_spans >= MARK_FLOOR and self.marked_spans >= self.live():
            self.marks.clear()
            self.marked_spans = 0
            self.clears += 1


def check(recorder: SpanRecorder, model: StoreModel) -> None:
    spans = recorder.spans()
    seqs = [span.context.seq for span in spans]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    assert len(recorder) == len(spans) == model.live()
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.context.trace_id, []).append(span)
    for trace_id in set(by_trace) | set(model.traces) | model.marks:
        got = recorder.trace_spans(trace_id)
        assert got == tuple(by_trace.get(trace_id, ()))
        assert [s.context.seq for s in got] == model.traces.get(trace_id, [])
    assert recorder.dropped == model.dropped
    assert recorder.discarded_spans == model.discarded_spans


def run_ops(ops, capacity: int = CAPACITY, steps: int = STEPS) -> StoreModel:
    """Replay ``ops`` cyclically for ``steps`` steps, checking each one."""
    clock = SimClock()
    recorder = SpanRecorder(clock, enabled=True, capacity=capacity)
    model = StoreModel(capacity)
    slots = [None] * SLOTS  # a span handle per slot: its trace is the slot's
    open_spans = []

    def parent_of(slot):
        """(parent argument, the trace it resolves to; None = new trace)."""
        handle = slots[slot]
        if handle is not None:
            return handle, handle.context.trace_id
        return None, model.stack[-1].trace_id if model.stack else None

    def keep(slot, span):
        if slots[slot] is None and span is not NO_SPAN:
            slots[slot] = span

    for step in range(steps):
        op = ops[step % len(ops)]
        kind = op[0]
        clock.advance(1.0)
        if kind == "begin":
            _, slot, detached = op
            parent, trace_id = parent_of(slot)
            span = recorder.begin("work", parent=parent, detached=detached)
            model.admit(trace_id, span)
            if span is not NO_SPAN:
                open_spans.append(span)
                if not detached:
                    model.stack.append(span.context)
            keep(slot, span)
        elif kind == "end":
            if open_spans:
                span = open_spans.pop()
                if span.context in model.stack:
                    while model.stack.pop() is not span.context:
                        pass
                recorder.end(span)
        elif kind in ("record", "late"):
            _, slot, count = op
            parent, trace_id = parent_of(slot)
            if kind == "late" and parent is not None:
                parent = parent.context.wire()  # the in-band (trace, span) pair
            for _ in range(count):
                span = recorder.record(
                    kind, start_us=clock.now - 1.0, end_us=clock.now, parent=parent
                )
                model.admit(trace_id, span)
                keep(slot, span)
                if trace_id is None and span is not NO_SPAN:
                    parent, trace_id = span, span.context.trace_id
        elif kind == "event":
            parent, trace_id = parent_of(op[1])
            span = recorder.event("mark", parent=parent)
            model.admit(trace_id, span)
            keep(op[1], span)
        elif kind == "discard":
            handle = slots[op[1]]
            if handle is not None:
                trace_id = handle.context.trace_id
                model.discard(trace_id, recorder.discard_trace(trace_id))
        else:  # "new": the slot's next span starts (or joins) another trace
            slots[op[1]] = None
        check(recorder, model)
    return model


slot = st.integers(0, SLOTS - 1)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), slot, st.booleans()),
        st.tuples(st.just("end")),
        st.tuples(st.just("record"), slot, st.integers(1, 16)),
        st.tuples(st.just("event"), slot),
        st.tuples(st.just("late"), slot, st.integers(1, 4)),
        st.tuples(st.just("discard"), slot),
        st.tuples(st.just("new"), slot),
    ),
    min_size=1,
    max_size=30,
)

# Record a trace, discard it, send it late spans: crosses the mark floor.
CHURN = [
    ("new", 0), ("record", 0, 16), ("late", 0, 2), ("discard", 0), ("late", 0, 3),
]
# One trace grows to 640 live spans, then the churn starts beside it.
GROW_THEN_CHURN = [("record", 1, 16)] * 40 + CHURN * 150


@given(OPS)
@example(CHURN)
@example([("begin", 0, False), ("record", 0, 16), ("event", 1)])
@settings(max_examples=25, deadline=None)
def test_span_store_matches_model(ops):
    run_ops(ops)


def test_churn_crosses_the_mark_floor():
    """The discard-heavy example really exercises mark clearing: late
    spans of a discarded trace are refused, then admitted afresh."""
    model = run_ops(CHURN)
    assert model.clears > 1
    assert model.discarded_spans > MARK_FLOOR


def test_marks_hold_while_live_spans_outnumber_them():
    """Past the 512 floor the marks still hold until the discarded spans
    also reach the live-span count."""
    model = run_ops(GROW_THEN_CHURN, capacity=1000, steps=len(GROW_THEN_CHURN))
    assert model.clears > 1
    assert model.dropped == 0
