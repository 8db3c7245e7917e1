"""The cluster telemetry pipeline: store, alerts, tail sampling, wiring.

The headline properties under test:

* **inertness** — a run with the pipeline attached is byte-identical to
  one without it (same report fingerprint, same makespan): recording
  subdivides waits, it never creates work on the virtual timeline;
* **replay determinism** — two same-seed runs produce byte-identical
  store *and* alert fingerprints;
* **bounded detection** — a node death pages within one scrape interval
  and the page carries the corpse's non-empty recovery trace, which
  passes the Chrome trace schema after the alert is annotated into it;
* **tail sampling** — failure evidence is always retained, discretionary
  (slow) retention bows to the deterministic byte budget, and healthy
  traces are reclaimed.

Plus the satellites: node-prefixed cluster metric merges and the
flight-recorder/kill-path causality check.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster, ClusterServingSystem
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    annotate_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.sampling import TailSampler
from repro.obs.telemetry import TelemetryPipeline
from repro.obs.timeseries import TimeSeriesStore, bucket_quantile
from repro.serve.admission import Request
from repro.serve.frontend import ServingSystem
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model
from repro.serve.tenants import TenantSpec
from repro.sim.clock import SimClock
from repro.systems import CronusSystem, TestbedConfig

SCRAPE_US = 1_000.0


# -- helpers -----------------------------------------------------------------

def small_requests(n=200, *, tenant="t0", spacing_us=20.0, deadline_us=50_000.0):
    return [
        Request(tenant, f"r{i}", i * spacing_us, i * spacing_us + deadline_us, size=8)
        for i in range(n)
    ]


def build_serving(telemetry=None, **spec_kwargs):
    system = CronusSystem(TestbedConfig(num_gpus=2))
    serving = ServingSystem(
        system,
        max_batch=16,
        service_model=synthetic_service_model(),
        telemetry=telemetry,
    )
    serving.add_tenant(TenantSpec(
        "t0", rate_limit_rps=1_000_000.0, burst=256, max_queue_depth=1024,
        **spec_kwargs,
    ))
    return serving


# -- the windowed store ------------------------------------------------------

class TestBucketQuantile:
    def test_nearest_rank_picks_the_bucket_edge(self):
        bounds = (10.0, 20.0, 30.0)
        counts = [1, 2, 1, 0]  # one overflow slot
        assert bucket_quantile(bounds, counts, 50) == 20.0
        assert bucket_quantile(bounds, counts, 100) == 30.0
        assert bucket_quantile(bounds, counts, 1) == 10.0

    def test_overflow_bucket_reports_last_finite_edge(self):
        assert bucket_quantile((10.0, 20.0), [0, 0, 3], 99) == 20.0

    def test_empty_histogram_is_zero(self):
        assert bucket_quantile((10.0,), [0, 0], 99) == 0.0


class TestTimeSeriesStore:
    def test_counters_scrape_as_window_deltas(self):
        store = TimeSeriesStore(window_us=1_000.0)
        store.scrape_cumulative(1_000.0, "counter:serve/x", 5)
        store.scrape_cumulative(2_000.0, "counter:serve/x", 5)  # no delta
        store.scrape_cumulative(3_000.0, "counter:serve/x", 9)
        assert store.series("counter:serve/x") == ((1_000.0, 5), (3_000.0, 4))
        assert store.total("counter:serve/x") == 9
        assert store.window_sum("counter:serve/x", 1_500.0) == 4

    def test_gauges_record_only_on_change(self):
        store = TimeSeriesStore(window_us=1_000.0)
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("serve", "depth")
        gauge.set(3)
        store.scrape_registry(1_000.0, registry)
        store.scrape_registry(2_000.0, registry)  # unchanged: no sample
        gauge.set(5)
        store.scrape_registry(3_000.0, registry)
        assert store.series("gauge:serve/depth") == ((1_000.0, 3), (3_000.0, 5))

    def test_histograms_fold_into_window_quantiles(self):
        store = TimeSeriesStore(window_us=1_000.0)
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("serve", "latency_us", bounds=(100.0, 1_000.0))
        for value in (50.0, 60.0, 700.0):
            hist.observe(value)
        store.scrape_registry(1_000.0, registry)
        assert store.latest("hist:serve/latency_us.count") == 3
        assert store.latest("hist:serve/latency_us.p50") == 100.0
        assert store.latest("hist:serve/latency_us.p99") == 1_000.0
        # Next window only sees the new observations.
        hist.observe(2_000.0)
        store.scrape_registry(2_000.0, registry)
        assert store.latest("hist:serve/latency_us.count") == 1

    def test_fingerprint_stable_and_sensitive(self):
        def build(extra=0):
            store = TimeSeriesStore(window_us=1_000.0)
            store.scrape_cumulative(1_000.0, "counter:a", 3 + extra)
            store.note_scrape(1_000.0)
            return store

        assert build().fingerprint() == build().fingerprint()
        assert build().fingerprint() != build(extra=1).fingerprint()


# -- the alert engine --------------------------------------------------------

def _ratio_rule(**over):
    kwargs = dict(
        name="rejection-spike",
        series="slo:*.rejected",
        denom="slo:*.offered",
        label="tenant",
        mode="ratio",
        threshold=0.5,
        fast_window_us=2_000.0,
        slow_window_us=6_000.0,
        min_denom=1.0,
    )
    kwargs.update(over)
    return AlertRule(**kwargs)


class TestAlertEngine:
    def test_one_scrape_blip_does_not_page(self):
        """The slow window suppresses a single-scrape rejection blip."""
        store = TimeSeriesStore(window_us=1_000.0)
        engine = AlertEngine(store, [_ratio_rule()])
        # Five quiet scrapes: plenty offered, nothing rejected.
        for t in range(1, 6):
            store.scrape_cumulative(t * 1_000.0, "slo:a.offered", t * 10)
            store.scrape_cumulative(t * 1_000.0, "slo:a.rejected", 0)
            assert engine.evaluate(t * 1_000.0) == []
        # One bad scrape: fast ratio 10/10 breaches, slow 10/60 does not.
        store.scrape_cumulative(6_000.0, "slo:a.offered", 60)
        store.scrape_cumulative(6_000.0, "slo:a.rejected", 10)
        assert engine.evaluate(6_000.0) == []
        # The spike persists: both windows breach and the page fires once.
        for t in (7, 8, 9):
            store.scrape_cumulative(t * 1_000.0, "slo:a.offered", t * 10)
            store.scrape_cumulative(t * 1_000.0, "slo:a.rejected", (t - 5) * 10)
            engine.evaluate(t * 1_000.0)
        spikes = [a for a in engine.alerts if a.rule == "rejection-spike"]
        assert len(spikes) == 1
        assert spikes[0].labels == (("tenant", "a"),)

    def test_active_episode_deduplicates_until_clear(self):
        store = TimeSeriesStore(window_us=1_000.0)
        rule = AlertRule(
            name="burn", series="slo:*.p99_us", label="tenant", mode="max",
            threshold=100.0, fast_window_us=2_000.0, slow_window_us=2_000.0,
        )
        engine = AlertEngine(store, [rule])
        store.record(1_000.0, "slo:a.p99_us", 500.0)
        assert len(engine.evaluate(1_000.0)) == 1
        store.record(2_000.0, "slo:a.p99_us", 500.0)
        assert engine.evaluate(2_000.0) == []  # still the same episode
        assert engine.evaluate(6_000.0) == []  # clears (window empty)
        store.record(7_000.0, "slo:a.p99_us", 500.0)
        assert len(engine.evaluate(7_000.0)) == 1  # re-armed

    def test_wildcard_match_ignores_node_prefix(self):
        store = TimeSeriesStore(window_us=1_000.0)
        engine = AlertEngine(store, [_ratio_rule()])
        store.scrape_cumulative(1_000.0, "node=n1|slo:a.offered", 10)
        store.scrape_cumulative(1_000.0, "node=n1|slo:a.rejected", 9)
        fired = engine.evaluate(1_000.0)
        assert [a.labels for a in fired] == [(("tenant", "a"), ("node", "n1"))]
        # The ratio's denominator resolved under the same node prefix.
        assert fired[0].value == pytest.approx(0.9)

    def test_per_node_episodes_are_independent(self):
        """The same tenant on two nodes is two episodes: a healthy node
        never discards another node's active page (which would re-fire
        the same alert on every scrape), and a breach starting on a
        second node pages again instead of hiding under the first."""
        store = TimeSeriesStore(window_us=1_000.0)
        rule = AlertRule(
            name="burn", series="slo:*.p99_us", label="tenant", mode="max",
            threshold=100.0, fast_window_us=2_000.0, slow_window_us=2_000.0,
        )
        engine = AlertEngine(store, [rule])
        # node0 breaches, node1 stays healthy, sustained over 3 scrapes.
        for t in (1, 2, 3):
            store.record(t * 1_000.0, "node=n0|slo:a.p99_us", 500.0)
            store.record(t * 1_000.0, "node=n1|slo:a.p99_us", 10.0)
            engine.evaluate(t * 1_000.0)
        burns = [a for a in engine.alerts if a.rule == "burn"]
        assert len(burns) == 1  # one episode, no per-scrape re-fire
        assert burns[0].labels == (("tenant", "a"), ("node", "n0"))
        # node1 starts breaching while node0's episode is still active.
        store.record(4_000.0, "node=n0|slo:a.p99_us", 500.0)
        store.record(4_000.0, "node=n1|slo:a.p99_us", 500.0)
        fired = engine.evaluate(4_000.0)
        assert [a.labels for a in fired] == [(("tenant", "a"), ("node", "n1"))]

    def test_gauge_rule_sticks_past_the_window(self):
        """Gauges record only on change: a rule over a gauge series must
        keep seeing the stuck value after the last sample ages out of
        the window (last-write-carried-forward)."""
        store = TimeSeriesStore(window_us=1_000.0)
        rule = AlertRule(
            name="queue-stuck", series="gauge:serve/depth", mode="max",
            threshold=10.0, fast_window_us=2_000.0, slow_window_us=2_000.0,
        )
        engine = AlertEngine(store, [rule])
        store.record(1_000.0, "gauge:serve/depth", 50.0)  # then never changes
        assert len(engine.evaluate(1_000.0)) == 1
        # 10 windows later there is no sample inside the window, but the
        # gauge still *is* 50: the episode stays active, no re-fire...
        assert engine.evaluate(11_000.0) == []
        assert len(engine.evaluate(12_000.0)) == 0
        # ...and window_max (plain) vs the sticky read differ as designed.
        assert store.window_max("gauge:serve/depth", 10_000.0) == 0
        assert store.window_max_sticky("gauge:serve/depth", 10_000.0) == 50.0
        # The gauge recovering clears the episode and re-arms the rule.
        store.record(13_000.0, "gauge:serve/depth", 0.0)
        assert engine.evaluate(13_000.0) == []
        store.record(14_000.0, "gauge:serve/depth", 50.0)
        assert len(engine.evaluate(14_000.0)) == 1

    def test_node_death_fires_at_next_evaluate_with_trace(self):
        store = TimeSeriesStore(window_us=1_000.0)
        engine = AlertEngine(store)
        trace = {"traceEvents": [{"name": "recovery.scrub"}]}
        engine.node_killed(1_500.0, "node1", recovery_trace=trace)
        assert engine.alerts == []
        fired = engine.evaluate(2_000.0)
        assert len(fired) == 1
        page = fired[0]
        assert page.rule == AlertEngine.NODE_DEATH_RULE
        assert page.severity == "page"
        assert ("node", "node1") in page.labels
        assert page.recovery_trace == trace
        assert engine.crash_alerts() == [page]

    def test_fingerprint_replays(self):
        def build():
            store = TimeSeriesStore(window_us=1_000.0)
            engine = AlertEngine(store, [_ratio_rule()])
            store.scrape_cumulative(1_000.0, "slo:a.offered", 10)
            store.scrape_cumulative(1_000.0, "slo:a.rejected", 9)
            engine.evaluate(1_000.0)
            return engine

        assert build().fingerprint() == build().fingerprint()


# -- the tail sampler --------------------------------------------------------

def _trace(recorder, name="serve.request", attrs=2):
    span = recorder.begin(name, detached=True, **{f"k{i}": i for i in range(attrs)})
    recorder.end(span)
    return span.context.trace_id


class TestTailSampler:
    def _recorder(self):
        return SpanRecorder(SimClock(), enabled=True)

    def test_failure_outcomes_always_retained(self):
        recorder = self._recorder()
        sampler = TailSampler(recorder, slow_us=1_000.0, byte_budget=1)
        tid = _trace(recorder)
        assert sampler.observe(tid, latency_us=10.0, outcome="expired")
        assert sampler.retained[tid] == "expired"
        # Even a 1-byte budget cannot evict failure evidence.
        assert sampler.retained_bytes > sampler.byte_budget

    def test_slow_retention_bows_to_the_budget(self):
        recorder = self._recorder()
        sampler = TailSampler(recorder, slow_us=100.0, byte_budget=200)
        first = _trace(recorder)
        assert sampler.observe(first, latency_us=500.0, outcome="completed")
        second = _trace(recorder)
        assert not sampler.observe(second, latency_us=500.0, outcome="completed")
        assert sampler.budget_rejected == 1
        assert recorder.trace_spans(second) == ()  # reclaimed

    def test_healthy_traces_are_reclaimed(self):
        recorder = self._recorder()
        sampler = TailSampler(recorder, slow_us=1_000.0)
        tid = _trace(recorder)
        assert not sampler.observe(tid, latency_us=10.0, outcome="completed")
        assert sampler.discarded_traces == 1
        assert sampler.discarded_spans == 1
        assert recorder.trace_spans(tid) == ()

    def test_late_spans_of_a_discarded_trace_are_dropped(self):
        """A child span arriving after the sampler's drop decision (its
        parent carried in-band) must not resurrect ``_by_trace``: the
        recorder's length, capacity accounting and ``spans()`` view all
        stay consistent."""
        recorder = self._recorder()
        sampler = TailSampler(recorder, slow_us=1_000.0)
        span = recorder.begin("serve.request", detached=True)
        wire = span.context.wire()
        recorder.end(span)
        tid = span.context.trace_id
        assert not sampler.observe(tid, latency_us=10.0, outcome="completed")
        before = recorder.discarded_spans
        from repro.obs.span import NO_SPAN

        late = recorder.record(
            "srpc.execute", start_us=5.0, end_us=6.0, parent=wire
        )
        assert late is NO_SPAN
        assert recorder.begin("child", parent=wire) is NO_SPAN
        assert recorder.discarded_spans == before + 2
        assert recorder.trace_spans(tid) == ()
        assert len(recorder) == len(recorder.spans())

    def test_recovery_pin_overrides_everything(self):
        recorder = self._recorder()
        sampler = TailSampler(recorder, slow_us=1_000.0, byte_budget=1)
        tid = _trace(recorder)
        sampler.note_recovery(tid)
        assert sampler.observe(tid, latency_us=1.0, outcome="completed")
        assert sampler.retained[tid] == "recovery"

    def test_bucket_and_tenant_exemplars(self):
        recorder = self._recorder()
        sampler = TailSampler(
            recorder, slow_us=100.0, bounds=(1_000.0, 10_000.0),
            exemplars_per_bucket=1,
        )
        slow = _trace(recorder)
        sampler.observe(slow, latency_us=5_000.0, outcome="completed", tenant="a")
        slower = _trace(recorder)
        sampler.observe(slower, latency_us=50_000.0, outcome="completed", tenant="a")
        assert sampler.bucket_exemplars() == {1: (slow,), 2: (slower,)}
        assert sampler.top_exemplars(2) == (slower, slow)
        assert sampler.tenant_exemplars("a") == (slow, slower)


# -- single-node pipeline wiring ---------------------------------------------

class TestServingPipeline:
    def test_pipeline_is_inert_on_the_virtual_timeline(self):
        requests = small_requests()
        bare = build_serving().run(requests)
        telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_US)
        piped = build_serving(telemetry=telemetry).run(requests)
        assert piped.fingerprint == bare.fingerprint
        assert piped.makespan_us == bare.makespan_us
        assert telemetry.store.scrapes > 0

    def test_store_carries_slo_and_counter_series(self):
        telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_US)
        build_serving(telemetry=telemetry).run(small_requests())
        keys = telemetry.store.keys()
        assert any(k.startswith("slo:t0.") for k in keys)
        assert any(k.startswith("counter:") for k in keys)
        assert telemetry.store.total("slo:t0.completed") > 0

    def test_replay_is_byte_identical(self):
        def run_once():
            telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_US)
            build_serving(telemetry=telemetry).run(small_requests())
            return telemetry

        a, b = run_once(), run_once()
        assert a.store_fingerprint() == b.store_fingerprint()
        assert a.alert_fingerprint() == b.alert_fingerprint()
        assert a.fingerprint() == b.fingerprint()

    def test_rejection_spike_pages_the_noisy_tenant(self):
        telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_US)
        serving = build_serving(telemetry=telemetry)
        serving.add_tenant(TenantSpec("noisy", rate_limit_rps=100.0, burst=2))
        requests = small_requests(600, spacing_us=50.0)
        requests += [
            Request("noisy", f"n{i}", 10_000.0 + i * 50.0, 40_000.0 + i * 50.0, size=8)
            for i in range(300)
        ]
        requests.sort(key=lambda r: (r.arrival_us, r.tenant, r.rid))
        serving.run(requests)
        spikes = [
            a for a in telemetry.alerts.alerts
            if a.rule == "rejection-spike" and ("tenant", "noisy") in a.labels
        ]
        assert spikes, "noisy tenant ramp fired no rejection-spike"
        assert spikes[0].t_us >= 10_000.0
        assert not any(
            ("tenant", "t0") in a.labels
            for a in telemetry.alerts.alerts
            if a.rule == "rejection-spike"
        )


# -- cluster wiring: node death, migration, merged metrics -------------------

@pytest.fixture(scope="module")
def cluster_kill():
    """One telemetry-enabled cluster run with a mid-trace node kill."""
    profile = LoadProfile(
        requests=2_000, tenants=16, mean_rate_rps=400_000.0,
        deadline_us=50_000.0,
    )
    specs, requests = generate_trace(profile)
    kill_t = 2_000.0

    def run_once():
        telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_US)
        serving = ClusterServingSystem(
            Cluster(num_nodes=3, gpus_per_node=1),
            max_batch=16,
            service_model=synthetic_service_model(),
            telemetry=telemetry,
        )
        serving.add_tenants(specs)
        report = serving.run(requests, node_kill_events=[(kill_t, "node1")])
        return telemetry, serving, report

    telemetry, serving, report = run_once()
    replay_telemetry, _, replay_report = run_once()
    return {
        "telemetry": telemetry,
        "serving": serving,
        "report": report,
        "replay_telemetry": replay_telemetry,
        "replay_report": replay_report,
        "kill_t": kill_t,
    }


class TestClusterTelemetry:
    def test_node_death_pages_within_one_scrape(self, cluster_kill):
        telemetry = cluster_kill["telemetry"]
        deaths = [
            a for a in telemetry.alerts.alerts
            if a.rule == AlertEngine.NODE_DEATH_RULE
        ]
        assert len(deaths) == 1
        page = deaths[0]
        assert ("node", "node1") in page.labels
        detection = page.t_us - cluster_kill["kill_t"]
        assert 0.0 <= detection <= SCRAPE_US + 1e-6

    def test_recovery_trace_attached_and_valid(self, cluster_kill, tmp_path):
        telemetry = cluster_kill["telemetry"]
        page = telemetry.alerts.crash_alerts()[0]
        trace = page.recovery_trace
        assert trace is not None and trace["traceEvents"]
        annotated = annotate_chrome_trace(dict(trace), [page])
        assert validate_chrome_trace(annotated) == []
        paths = telemetry.alerts.dump_recovery_traces(str(tmp_path))
        assert len(paths) == 1
        dumped = json.loads((tmp_path / paths[0].split("/")[-1]).read_text())
        annotations = [
            e for e in dumped["traceEvents"]
            if e.get("ph") == "i" and e.get("cat") == "alert"
        ]
        assert len(annotations) == 1
        assert annotations[0]["args"]["rule"] == AlertEngine.NODE_DEATH_RULE

    def test_cluster_replay_is_byte_identical(self, cluster_kill):
        assert (
            cluster_kill["telemetry"].fingerprint()
            == cluster_kill["replay_telemetry"].fingerprint()
        )
        assert (
            cluster_kill["report"].fingerprint
            == cluster_kill["replay_report"].fingerprint
        )

    def test_store_keys_carry_node_prefixes(self, cluster_kill):
        keys = cluster_kill["telemetry"].store.keys()
        nodes = {
            k.split("|", 1)[0] for k in keys if k.startswith("node=")
        }
        assert {"node=node0", "node=node1", "node=node2"} <= nodes
        # Deployment-level extras are scraped with no node prefix.
        assert any(k.startswith("counter:cluster/") for k in keys)

    def test_cluster_metrics_merge_is_node_prefixed(self, cluster_kill):
        registry = cluster_kill["serving"].cluster_metrics()
        layers = {row[0] for row in registry.rows()}
        assert layers, "merged registry is empty"
        assert all(layer.startswith("node=") for layer in layers)
        assert any(layer.startswith("node=node0:") for layer in layers)
        assert any(layer.startswith("node=node2:") for layer in layers)

    def test_flight_dump_precedes_the_migration_restore(self, cluster_kill):
        """Satellite 3: the corpse's flight recorder dumped on the kill
        path, and its entries causally precede both the kill marker (in
        the corpse's own seq order) and the restores on the survivors
        (on the serving timeline)."""
        serving = cluster_kill["serving"]
        kill_t = cluster_kill["kill_t"]
        corpse = serving.node_state("node1").node.system.platform.obs
        assert corpse.flight_dumps, "node kill produced no flight dump"
        _, _, reason, snapshot = corpse.flight_dumps[-1]
        assert reason == "recovery"
        assert snapshot, "flight dump snapshot is empty"
        markers = [s for s in corpse.spans() if s.name == "recovery.node-kill"]
        assert len(markers) == 1
        marker = markers[0]
        assert marker.start_us == kill_t
        # The dump was taken before the kill marker was recorded: every
        # snapshot span precedes it in the corpse's total seq order.
        assert max(s.context.seq for s in snapshot) < marker.context.seq
        restores = [
            span
            for name in ("node0", "node2")
            for span in serving.node_state(name).node.system.platform.obs.spans(
                category="recovery"
            )
            if span.name == "recovery.migrate-restore"
        ]
        assert restores, "no migrate-restore event on any survivor"
        # The restores land at (or after) the kill instant on the
        # serving timeline — never before the corpse's kill marker.
        assert all(s.start_us >= marker.start_us - 1e-6 for s in restores)

    def test_tail_sampler_saw_the_cluster_run(self, cluster_kill):
        stats = cluster_kill["telemetry"].sampler_stats()
        assert stats["considered"] > 0
        assert stats["discarded_traces"] + stats["retained"] <= stats["considered"] + len(
            cluster_kill["telemetry"].sources
        )

    def test_top_tables_render(self, cluster_kill):
        telemetry = cluster_kill["telemetry"]
        node_table = telemetry.node_table()
        assert "node1" in node_table and "DOWN" in node_table
        assert "tenant" in telemetry.tenant_table()
        alert_table = telemetry.alert_table()
        assert AlertEngine.NODE_DEATH_RULE in alert_table
