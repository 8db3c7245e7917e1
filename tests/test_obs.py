"""Observability: causal spans, the typed metrics registry, exporters.

The headline property under test is the cross-mEnclave, cross-crash causal
story: a partition crash mid-sRPC yields recovery spans parented *under the
crashed request's original trace*, and the resubmitted work links back to
the first attempt — one parented span tree spanning two partitions and a
failover.  The rest covers the determinism contract (inert by default,
same-seed fingerprint stability) and the exporters' schema gate.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import make_figure9_system
from repro.faults.failover import run_failover_experiment
from repro.metrics import counters_table, recovery_table, span_tree
from repro.obs import (
    MetricError,
    MetricsRegistry,
    NO_SPAN,
    SpanRecorder,
    chrome_trace,
    collect_system_metrics,
    recovery_phases,
    validate_chrome_trace,
)
from repro.sim.clock import SimClock
from repro.systems import CronusSystem, TestbedConfig


def _failover(**kwargs):
    system = make_figure9_system(obs=True)
    result = run_failover_experiment(
        system=system,
        duration_us=600_000.0,
        crash_at_us=200_000.0,
        bucket_us=50_000.0,
        **kwargs,
    )
    return system, result


@pytest.fixture(scope="module")
def failover():
    """One observability-enabled figure-9 run shared by this module."""
    return _failover()


class TestSpanRecorder:
    def test_disabled_recorder_is_inert(self):
        recorder = SpanRecorder(SimClock())
        span = recorder.begin("op")
        assert span is NO_SPAN
        recorder.end(span)
        recorder.record("op", start_us=0.0, end_us=1.0)
        recorder.event("marker")
        assert len(recorder) == 0
        assert recorder.dump_flight("p", "test") == ()
        assert recorder.flight_dumps == []

    def test_parenting_and_trace_identity(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        root = recorder.begin("root")
        child = recorder.begin("child")
        assert child.context.trace_id == root.context.trace_id
        assert child.context.parent_id == root.context.span_id
        recorder.end(child)
        recorder.end(root)
        other = recorder.begin("other-root")
        assert other.context.trace_id != root.context.trace_id
        recorder.end(other)

    def test_seq_is_a_total_order(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        for index in range(5):
            recorder.event(f"e{index}")
        seqs = [s.context.seq for s in recorder.spans()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_detached_root_does_not_capture_unrelated_spans(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        task = recorder.begin("task", detached=True)
        stray = recorder.begin("stray")
        # A detached root is not on the stack, so the stray span starts
        # its own trace rather than nesting under the task.
        assert stray.context.trace_id != task.context.trace_id
        recorder.end(stray)
        with recorder.attach(task.context):
            adopted = recorder.begin("adopted")
            assert adopted.context.parent_id == task.context.span_id
            recorder.end(adopted)
        recorder.end(task)
        # Ending the detached root must not have drained the stack.
        assert recorder.current() is None

    def test_in_band_wire_context_roundtrip(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        caller = recorder.begin("srpc.call")
        wire = caller.context.wire()  # what rides inside the sRPC record
        callee = recorder.record(
            "srpc.execute", start_us=0.0, end_us=1.0, parent=tuple(wire)
        )
        assert callee.context.trace_id == caller.context.trace_id
        assert callee.context.parent_id == caller.context.span_id
        recorder.end(caller)

    def test_partition_context_tracks_last_activity(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        first = recorder.record("a", start_us=0.0, end_us=1.0, partition="p0")
        assert recorder.partition_context("p0") == first.context
        second = recorder.record("b", start_us=1.0, end_us=2.0, partition="p0")
        assert recorder.partition_context("p0") == second.context
        assert recorder.partition_context("p1") is None

    def test_capacity_drops_are_counted(self):
        recorder = SpanRecorder(SimClock(), enabled=True, capacity=2)
        recorder.event("a")
        recorder.event("b")
        assert recorder.event("c") is NO_SPAN
        assert recorder.dropped == 1
        assert len(recorder) == 2


class TestMetricsRegistry:
    def test_disabled_registry_hands_out_null_instruments(self):
        registry = MetricsRegistry()
        registry.counter("layer", "n").inc()
        registry.gauge("layer", "g").set(7)
        registry.histogram("layer", "h").observe(1.0)
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_typed_instruments(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("l", "c").inc(3)
        registry.gauge("l", "g").set(2.5)
        registry.histogram("l", "h", bounds=(1.0, 10.0)).observe(5.0)
        snap = registry.snapshot()
        assert snap["l/c"] == 3
        assert snap["l/g"] == 2.5
        assert snap["l/h"]["count"] == 1
        assert snap["l/h"]["buckets"] == [0, 1, 0]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("l", "x").inc()
        with pytest.raises(MetricError):
            registry.gauge("l", "x")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(MetricError):
            registry.counter("l", "c").inc(-1)

    def test_absorb_legacy_dict_as_gauges(self):
        registry = MetricsRegistry(enabled=True)
        registry.absorb("tlb", {"hits": 10, "misses": 2, "name": "skipme"})
        assert registry.snapshot() == {"tlb/hits": 10, "tlb/misses": 2}

    def test_fingerprint_stable_and_sensitive(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for registry in (a, b):
            registry.counter("l", "c").inc(3)
        assert a.fingerprint() == b.fingerprint()
        b.counter("l", "c").inc()
        assert a.fingerprint() != b.fingerprint()


class TestFailoverTracePropagation:
    """The acceptance story: one trace across two partitions and a crash."""

    def test_recovery_spans_share_the_crashed_requests_trace(self, failover):
        system, _ = failover
        obs = system.platform.obs
        roots = obs.spans(name="task.task-a", category="task")
        assert roots, "task root spans missing"
        first = roots[0]
        assert first.attrs["attempt"] == 1
        assert first.attrs["outcome"] == "crashed"
        # Every recovery-phase span lives in the crashed request's trace.
        recovery = obs.spans(category="recovery")
        assert recovery
        assert {s.context.trace_id for s in recovery} == {first.context.trace_id}

    def test_resubmitted_work_links_to_the_first_attempt(self, failover):
        system, _ = failover
        obs = system.platform.obs
        roots = obs.spans(name="task.task-a", category="task")
        assert len(roots) == 2
        first, second = roots
        assert second.attrs["attempt"] == 2
        assert second.attrs["resubmit_of"] == first.context.span_id
        assert second.context.trace_id == first.context.trace_id
        assert second.attrs["outcome"] == "finished"

    def test_srpc_spans_cross_the_partition_boundary(self, failover):
        system, _ = failover
        obs = system.platform.obs
        calls = {s.context.span_id: s for s in obs.spans(name="srpc.call")}
        executes = obs.spans(name="srpc.execute")
        assert calls and executes
        for execute in executes:
            call = calls[execute.context.parent_id]
            assert execute.context.trace_id == call.context.trace_id
            # Caller runs in the CPU partition, callee in a GPU partition.
            assert call.partition != execute.partition
            assert execute.partition in ("part-gpu0", "part-gpu1")

    def test_recovery_breakdown_sums_to_failover_latency(self, failover):
        system, result = failover
        phases = recovery_phases(system.platform.obs)
        reported = result.detection_us + result.recovery_us + result.resubmit_us
        assert sum(phases.values()) == pytest.approx(reported, abs=1e-6)
        assert phases["trap"] > 0
        assert phases["scrub"] > 0
        assert phases["reload"] > 0
        assert phases["resubmit"] > 0
        assert phases["detect"] == 0.0  # panic detection is synchronous

    def test_flight_recorder_survives_the_crash(self, failover):
        system, _ = failover
        obs = system.platform.obs
        assert len(obs.flight_dumps) == 1
        _, partition, reason, spans = obs.flight_dumps[0]
        assert partition == "part-gpu0"
        assert reason == "recovery"
        assert spans  # the last N spans leading up to the crash

    def test_chrome_trace_passes_the_schema_gate(self, failover):
        system, _ = failover
        data = chrome_trace(system.platform.obs.spans())
        assert validate_chrome_trace(data) == []
        events = data["traceEvents"]
        processes = [e for e in events if e["name"] == "process_name"]
        names = {e["args"]["name"] for e in processes}
        assert {"part-cpu0", "part-gpu0", "part-gpu1"} <= names

    def test_watchdog_detection_appears_in_the_breakdown(self):
        system, result = _failover(detection="watchdog")
        phases = recovery_phases(system.platform.obs)
        assert result.detection_us > 0
        assert phases["detect"] == pytest.approx(result.detection_us)
        reported = result.detection_us + result.recovery_us + result.resubmit_us
        assert sum(phases.values()) == pytest.approx(reported, abs=1e-6)

    def test_metrics_fingerprint_is_deterministic(self, failover):
        system, _ = failover
        first = collect_system_metrics(system).fingerprint()
        system2, _ = _failover()
        second = collect_system_metrics(system2).fingerprint()
        assert first == second

    def test_unified_table_mixes_typed_and_absorbed_metrics(self, failover):
        system, _ = failover
        registry = collect_system_metrics(system)
        text = registry.render()
        assert "stage2:part-gpu0" in text  # absorbed legacy TLB dict
        assert "srpc" in text              # typed hot-path counters
        assert "histogram" in text


class TestInertness:
    """Disabled observability must not perturb simulated time."""

    def _run(self, obs_on):
        system = CronusSystem(TestbedConfig(num_gpus=2), obs=obs_on)
        result = run_failover_experiment(
            system=system,
            duration_us=400_000.0,
            crash_at_us=150_000.0,
            bucket_us=50_000.0,
        )
        return (
            result.recovery_us,
            result.resubmit_us,
            result.throughput,
            system.clock.now,
        )

    def test_disabled_runs_are_byte_identical(self):
        assert self._run(False) == self._run(False)

    def test_recording_never_advances_the_clock(self):
        # Recovery accounting and the throughput timeline are identical
        # with observability on.  Only the resubmit/channel-setup numbers
        # may shift by sub-microsecond amounts: enabled runs carry the
        # in-band (trace_id, span_id) pair inside each sRPC record, and
        # transfer cost is proportional to record bytes — a *wire* cost,
        # not a recording cost (see docs/observability.md).
        off, on = self._run(False), self._run(True)
        assert off[0] == on[0]  # recovery_us
        assert off[2] == on[2]  # per-bucket throughput
        assert on[1] == pytest.approx(off[1], rel=1e-3)  # resubmit_us
        assert on[3] == pytest.approx(off[3], rel=1e-6)  # final clock

    def test_disabled_system_records_nothing(self):
        system = CronusSystem()
        rt = system.runtime(cuda_kernels=("vecadd",), owner="quiet")
        system.release(rt)
        assert len(system.platform.obs) == 0
        assert len(system.platform.metrics) == 0


class TestReportRenderers:
    def test_span_tree_renders_parent_child_indentation(self):
        recorder = SpanRecorder(SimClock(), enabled=True)
        root = recorder.begin("root")
        child = recorder.begin("child")
        recorder.end(child)
        recorder.end(root)
        text = span_tree(recorder.spans())
        lines = text.splitlines()
        assert "root" in lines[0]
        assert lines[1].index("child") > lines[0].index("root")

    def test_recovery_table_totals(self):
        table = recovery_table({"detect": 1.0, "trap": 2.0})
        assert "total" in table
        assert "3.000" in table

    def test_counters_table_sorted_by_layer_then_counter(self):
        text = counters_table({"z-layer": {"b": 1, "a": 2}, "a-layer": {"x": 3}})
        lines = [l for l in text.splitlines()[2:] if l.strip()]
        keys = [tuple(l.split()[:2]) for l in lines]
        assert keys == sorted(keys)


class TestTracerSatellites:
    def test_trace_events_have_monotonic_seq(self):
        system = CronusSystem(trace=True)
        tracer = system.platform.tracer
        events = tracer.events()
        assert isinstance(events, tuple)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_clear_resets_seq(self):
        system = CronusSystem(trace=True)
        tracer = system.platform.tracer
        tracer.clear()
        tracer.emit("test", "op", "detail")
        assert tracer.events()[-1].seq == 1


class TestServingSpans:
    def test_request_roots_and_outcomes(self):
        from repro.serve.admission import Request
        from repro.serve.frontend import ServingSystem
        from repro.serve.tenants import TenantSpec

        system = CronusSystem(TestbedConfig(num_gpus=2), obs=True)
        serving = ServingSystem(system, max_batch=2, max_delay_us=1_000.0)
        serving.add_tenant(
            TenantSpec(name="t0", rate_limit_rps=1000.0, burst=8)
        )
        requests = [
            Request(
                tenant="t0", rid=f"r{i}", arrival_us=i * 100.0,
                deadline_us=i * 100.0 + 3_000_000.0, size=8, data_seed=i,
            )
            for i in range(4)
        ]
        report = serving.run(requests)
        obs = system.platform.obs
        roots = obs.spans(name="serve.request", category="serve")
        assert len(roots) == 4
        for root in roots:
            assert root.attrs["outcome"] == "completed"
            rid = root.attrs["rid"]
            assert root.end_us == pytest.approx(report.completed[rid])
        batches = obs.spans(name="serve.batch", category="serve")
        assert batches
        assert all(b.attrs["reason"] in ("full", "due") for b in batches)
        executes = obs.spans(name="serve.execute", category="serve")
        by_parent = {e.context.parent_id for e in executes}
        assert by_parent <= {r.context.span_id for r in roots}
