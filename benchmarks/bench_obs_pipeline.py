"""Telemetry pipeline end-to-end: overhead, detection latency, replay.

Drives the :class:`~repro.obs.telemetry.TelemetryPipeline` against the
cluster serving system and records four proofs into ``BENCH_obs.json``
at the repo root:

* **overhead** — the same cluster trace served three ways: telemetry
  fully off, spans+metrics enabled with no pipeline (the *instrumented*
  baseline), and the full pipeline (store scrapes + alert evaluation +
  tail sampling).  The gated ratio is pipeline over instrumented — the
  machinery this PR adds — and must stay within 10% in the full sweep;
  pipeline over off is reported as the informational instrumentation
  ratio.  The cluster report fingerprint must be byte-identical across
  all three runs (recording never perturbs the simulation);
* **node_kill** — a node dies mid-trace; the node-death page must fire
  within one scrape interval of the kill (by construction: the death is
  queued out-of-band and converted at the next scrape) and must carry a
  non-empty recovery Chrome trace that passes the trace schema after
  the alert is annotated into it, and that dumps to disk;
* **noisy** — a noisy-neighbour tenant ramps to ~20x its token-bucket
  refill mid-trace on a single node; the multi-window rejection-spike
  rule must page for exactly that tenant within the slow window of the
  ramp (the fast window gives detection, the slow window keeps the
  pre-ramp trace quiet);
* **replay** — the node-kill scenario runs twice from the same seed and
  the combined store+alert fingerprints must be **byte-identical**.

Wall-clock ratios use ``time.process_time`` and min-of-N repeats so the
gate measures the pipeline, not the host's scheduling noise.  Every
"must" above is a rule of the bench contract
(``scripts/check_bench_schema.py``), which holds the document to it
before the bench exits.

Run standalone (writes ``BENCH_obs.json``)::

    PYTHONPATH=src python benchmarks/bench_obs_pipeline.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_obs_pipeline.py --smoke   # CI slice

or as the deselected ``obs`` pytest marker::

    pytest -m obs benchmarks/bench_obs_pipeline.py
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

try:
    import pytest
except ImportError:  # standalone invocation does not need pytest
    pytest = None

from repro.cluster import Cluster, ClusterServingSystem
from repro.obs import enable
from repro.obs.export import annotate_chrome_trace, validate_chrome_trace
from repro.obs.telemetry import TelemetryPipeline
from repro.serve.admission import Request
from repro.serve.frontend import ServingSystem
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model
from repro.serve.tenants import TenantSpec
from repro.systems import CronusSystem, TestbedConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import check, gate  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_obs.json"

SCHEMA = "cronus.bench_obs/v1"

NODES = 3
GPUS_PER_NODE = 2
MAX_BATCH = 64
MAX_DELAY_US = 2_000.0
MEAN_RATE_RPS = 600_000.0
DEADLINE_US = 100_000.0
SCRAPE_INTERVAL_US = 10_000.0
KILLED_NODE = "node1"
KILL_FRACTION = 0.4  # kill strikes this far into the offered trace
SLOW_TRACE_US = 5_000.0  # tail-retention threshold in the kill scenario

FULL_REQUESTS = 40_000
FULL_OVERHEAD_CEILING = 1.10
FULL_REPEATS = 5
FULL_NOISY_TRACE_US = 400_000.0

SMOKE_REQUESTS = 12_000
SMOKE_OVERHEAD_CEILING = 1.5  # CI hosts are noisy; the full sweep gates 1.10
SMOKE_REPEATS = 2
SMOKE_NOISY_TRACE_US = 150_000.0

# Noisy-neighbour scenario: the victim is far under its limit, the noisy
# tenant ramps to ~20x its refill rate mid-trace.
NOISY_RAMP_FRACTION = 0.4
NOISY_RATE_LIMIT_RPS = 500.0
NOISY_BURST = 4
NOISY_INTERARRIVAL_US = 100.0  # 10k rps offered against a 500 rps bucket
VICTIM_INTERARRIVAL_US = 50.0


def obs_profile(requests):
    """The overhead/kill trace profile (pure function of the scale)."""
    return LoadProfile(
        requests=requests,
        mean_rate_rps=MEAN_RATE_RPS,
        deadline_us=DEADLINE_US,
    )


def build_cluster_serving(*, telemetry=None):
    serving = ClusterServingSystem(
        Cluster(num_nodes=NODES, gpus_per_node=GPUS_PER_NODE),
        max_batch=MAX_BATCH,
        max_delay_us=MAX_DELAY_US,
        service_model=synthetic_service_model(),
        telemetry=telemetry,
    )
    return serving


def _timed_run(build, requests, *, kill_at_us=None):
    """(process seconds, report, serving) for one freshly built run."""
    serving = build()
    kills = [(kill_at_us, KILLED_NODE)] if kill_at_us is not None else []
    t0 = time.process_time()
    report = serving.run(requests, node_kill_events=kills)
    return time.process_time() - t0, report, serving


def run_overhead(specs, requests, *, repeats, ceiling, log):
    """Three timed variants of the same trace; min-of-N process time.

    Repeats are interleaved (off/instrumented/pipeline per round, not
    three sequential blocks) so slow machine-speed drift over the sweep
    lands on every variant equally instead of on whichever ran last."""

    def build_off():
        serving = build_cluster_serving()
        serving.add_tenants(specs)
        return serving

    def build_instrumented():
        # Spans + metrics on (the recording cost that predates the
        # pipeline), but no store, no alerts, no sampler, no scrapes.
        serving = build_cluster_serving()
        serving.add_tenants(specs)
        for node in serving.cluster:
            enable(node.system)
        return serving

    def build_pipeline():
        serving = build_cluster_serving(
            telemetry=TelemetryPipeline(scrape_interval_us=SCRAPE_INTERVAL_US)
        )
        serving.add_tenants(specs)
        return serving

    variants = (
        ("off", build_off),
        ("instrumented", build_instrumented),
        ("pipeline", build_pipeline),
    )
    walls = {}
    fingerprints = {}
    makespans = {}
    for _ in range(repeats):
        for name, build in variants:
            wall, report, _ = _timed_run(build, requests)
            walls[name] = min(walls.get(name, wall), wall)
            fingerprints[name] = report.fingerprint
            makespans[name] = report.makespan_us
    for name, _ in variants:
        log(
            f"  overhead/{name:<12} {walls[name]:6.2f}s wall (min of {repeats}), "
            f"makespan {makespans[name] / 1e6:.3f}s sim"
        )

    ratio = walls["pipeline"] / walls["instrumented"]
    instrumentation_ratio = walls["pipeline"] / walls["off"]
    fingerprints_equal = len(set(fingerprints.values())) == 1
    log(
        f"  overhead: pipeline/instrumented = {ratio:.3f}x "
        f"(ceiling {ceiling}x), pipeline/off = {instrumentation_ratio:.3f}x, "
        f"report fingerprints {'identical' if fingerprints_equal else 'DIVERGED'}"
    )
    return {
        "off_wall_s": round(walls["off"], 4),
        "instrumented_wall_s": round(walls["instrumented"], 4),
        "pipeline_wall_s": round(walls["pipeline"], 4),
        "repeats": repeats,
        "ratio": round(ratio, 4),
        "ceiling": ceiling,
        "instrumentation_ratio": round(instrumentation_ratio, 4),
        "makespan_us": round(makespans["pipeline"], 3),
        "makespans_equal": len(set(makespans.values())) == 1,
        "report_fingerprints_equal": fingerprints_equal,
        "fingerprint": fingerprints["off"],
    }


def run_node_kill(specs, requests, kill_at_us, *, log):
    """Kill a node mid-trace; measure page latency + the attached trace.

    Returns (block, pipeline) so the replay proof can reuse the run."""
    telemetry = TelemetryPipeline(
        scrape_interval_us=SCRAPE_INTERVAL_US, slow_trace_us=SLOW_TRACE_US
    )
    serving = build_cluster_serving(telemetry=telemetry)
    serving.add_tenants(specs)
    serving.run(requests, node_kill_events=[(kill_at_us, KILLED_NODE)])

    deaths = [
        a for a in telemetry.alerts.alerts
        if a.rule == telemetry.alerts.NODE_DEATH_RULE
    ]
    if not deaths:
        raise SystemExit("node kill fired no node-death page")
    page = deaths[0]
    detection_us = page.t_us - kill_at_us
    trace = page.recovery_trace or {"traceEvents": []}
    annotated = annotate_chrome_trace(dict(trace), [page])
    problems = validate_chrome_trace(annotated)
    with tempfile.TemporaryDirectory() as tmp:
        dumped = telemetry.alerts.dump_recovery_traces(tmp)
    log(
        f"  node_kill: killed {KILLED_NODE} at {kill_at_us / 1e3:.1f}ms, "
        f"page at {page.t_us / 1e3:.1f}ms (detection {detection_us / 1e3:.1f}ms, "
        f"interval {SCRAPE_INTERVAL_US / 1e3:.1f}ms), recovery trace "
        f"{len(trace['traceEvents'])} events "
        f"{'ok' if not problems else 'INVALID'}, {len(dumped)} dump(s)"
    )
    block = {
        "killed_node": KILLED_NODE,
        "kill_t_us": kill_at_us,
        "alert_t_us": round(page.t_us, 3),
        "detection_us": round(detection_us, 3),
        "scrape_interval_us": SCRAPE_INTERVAL_US,
        "within_one_interval": detection_us <= SCRAPE_INTERVAL_US + 1e-6,
        "severity": page.severity,
        "recovery_trace_events": len(trace["traceEvents"]),
        "trace_problems": problems,
        "schema_ok": not problems,
        "dumped_traces": len(dumped),
        "alerts_total": len(telemetry.alerts.alerts),
    }
    return block, telemetry


def noisy_requests(trace_us, ramp_start_us):
    """Victim cruises the whole trace; the noisy tenant slams from the
    ramp instant onwards.  Deterministic arithmetic arrivals."""
    out = []
    t = 0.0
    i = 0
    while t < trace_us:
        out.append(
            Request("victim", f"v{i}", t, t + DEADLINE_US, size=8)
        )
        i += 1
        t = i * VICTIM_INTERARRIVAL_US
    j = 0
    t = ramp_start_us
    while t < trace_us:
        out.append(
            Request("noisy", f"n{j}", t, t + DEADLINE_US, size=8)
        )
        j += 1
        t = ramp_start_us + j * NOISY_INTERARRIVAL_US
    out.sort(key=lambda r: (r.arrival_us, r.tenant, r.rid))
    return out


def run_noisy(trace_us, *, log):
    """The noisy-neighbour ramp on one 2-GPU node."""
    ramp_start_us = NOISY_RAMP_FRACTION * trace_us
    telemetry = TelemetryPipeline(scrape_interval_us=SCRAPE_INTERVAL_US)
    system = CronusSystem(TestbedConfig(num_gpus=GPUS_PER_NODE))
    serving = ServingSystem(
        system,
        max_batch=MAX_BATCH,
        max_delay_us=MAX_DELAY_US,
        service_model=synthetic_service_model(),
        telemetry=telemetry,
    )
    serving.add_tenant(TenantSpec(
        "victim", rate_limit_rps=1_000_000.0, burst=1024,
        max_queue_depth=4096, deadline_us=DEADLINE_US,
    ))
    serving.add_tenant(TenantSpec(
        "noisy", rate_limit_rps=NOISY_RATE_LIMIT_RPS, burst=NOISY_BURST,
        deadline_us=DEADLINE_US,
    ))
    serving.run(noisy_requests(trace_us, ramp_start_us))

    spikes = [
        a for a in telemetry.alerts.alerts
        if a.rule == "rejection-spike" and ("tenant", "noisy") in a.labels
    ]
    victim_spikes = [
        a for a in telemetry.alerts.alerts
        if a.rule == "rejection-spike" and ("tenant", "victim") in a.labels
    ]
    rule = next(r for r in telemetry.alerts.rules if r.name == "rejection-spike")
    detected = bool(spikes)
    detection_us = spikes[0].t_us - ramp_start_us if detected else -1.0
    log(
        f"  noisy: ramp at {ramp_start_us / 1e3:.1f}ms, rejection-spike "
        f"{'at %.1fms (detection %.1fms)' % (spikes[0].t_us / 1e3, detection_us / 1e3) if detected else 'NOT DETECTED'}, "
        f"victim pages: {len(victim_spikes)}"
    )
    if not detected:
        raise SystemExit("noisy-neighbour ramp fired no rejection-spike alert")
    return {
        "trace_us": trace_us,
        "ramp_start_us": round(ramp_start_us, 3),
        "alert_t_us": round(spikes[0].t_us, 3),
        "detection_us": round(detection_us, 3),
        "slow_window_us": rule.slow_window_us,
        "within_slow_window": detection_us <= rule.slow_window_us + 1e-6,
        "value": round(spikes[0].value, 4),
        "threshold": spikes[0].threshold,
        "victim_false_pages": len(victim_spikes),
    }


def run_replay(specs, requests, kill_at_us, first, *, log):
    """The node-kill scenario again from scratch: every fingerprint in
    the telemetry plane must match the first run byte-for-byte."""
    telemetry = TelemetryPipeline(
        scrape_interval_us=SCRAPE_INTERVAL_US, slow_trace_us=SLOW_TRACE_US
    )
    serving = build_cluster_serving(telemetry=telemetry)
    serving.add_tenants(specs)
    serving.run(requests, node_kill_events=[(kill_at_us, KILLED_NODE)])
    store_equal = telemetry.store_fingerprint() == first.store_fingerprint()
    alerts_equal = telemetry.alert_fingerprint() == first.alert_fingerprint()
    log(
        f"  replay: store {'identical' if store_equal else 'DIVERGED'}, "
        f"alerts {'identical' if alerts_equal else 'DIVERGED'} "
        f"({first.store.scrapes} scrapes, {len(first.alerts.alerts)} alerts)"
    )
    return {
        "store_fingerprints_equal": store_equal,
        "alert_fingerprints_equal": alerts_equal,
        "scrapes": first.store.scrapes,
        "series": len(first.store),
        "alerts": len(first.alerts.alerts),
        "fingerprint": first.fingerprint(),
    }


def run_bench(*, smoke=False, log=print):
    """The full measurement document (everything but the output path)."""
    requests_n = SMOKE_REQUESTS if smoke else FULL_REQUESTS
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    ceiling = SMOKE_OVERHEAD_CEILING if smoke else FULL_OVERHEAD_CEILING
    noisy_trace_us = SMOKE_NOISY_TRACE_US if smoke else FULL_NOISY_TRACE_US
    profile = obs_profile(requests_n)
    specs, requests = generate_trace(profile)
    kill_at_us = round(KILL_FRACTION * requests_n / MEAN_RATE_RPS * 1e6, 1)

    overhead = run_overhead(
        specs, requests, repeats=repeats, ceiling=ceiling, log=log
    )
    node_kill, first_pipeline = run_node_kill(specs, requests, kill_at_us, log=log)
    replay = run_replay(specs, requests, kill_at_us, first_pipeline, log=log)
    noisy = run_noisy(noisy_trace_us, log=log)
    sampler = first_pipeline.sampler_stats()
    log(
        f"  sampler: {sampler.get('retained', 0)}/{sampler.get('considered', 0)} "
        f"traces retained in {sampler.get('retained_bytes', 0)} bytes "
        f"(budget {sampler.get('byte_budget', 0)}/node, "
        f"{sampler.get('discarded_spans', 0)} spans reclaimed)"
    )

    return {
        "schema": SCHEMA,
        "config": {
            "nodes": NODES,
            "gpus_per_node": GPUS_PER_NODE,
            "max_batch": MAX_BATCH,
            "max_delay_us": MAX_DELAY_US,
            "mean_rate_rps": MEAN_RATE_RPS,
            "deadline_us": DEADLINE_US,
            "scrape_interval_us": SCRAPE_INTERVAL_US,
            "requests": requests_n,
            "tenants": profile.tenants,
            "seed": profile.seed,
            "service_model": repr(synthetic_service_model()),
        },
        "overhead": overhead,
        "node_kill": node_kill,
        "noisy": noisy,
        "replay": replay,
        "sampler": {k: int(v) for k, v in sorted(sampler.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized slice instead of the full sweep",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    print(f"bench_obs_pipeline: {'smoke' if args.smoke else 'full'} sweep")
    doc = run_bench(smoke=args.smoke)
    doc["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if gate(args.output):
        raise SystemExit(1)
    return doc


if pytest is not None:

    @pytest.mark.obs
    def test_obs_pipeline_smoke():
        """The CI smoke slice honours the bench contract: recording is
        inert, detection is bounded and replay is byte-identical."""
        doc = run_bench(smoke=True, log=lambda *_: None)
        # Not a contract rule: failure-evidence traces bypass the byte budget by design.
        assert doc["sampler"]["retained_bytes"] <= doc["sampler"]["byte_budget"] * NODES
        doc["mode"] = "smoke"
        assert check(json.loads(json.dumps(doc))) == []


if __name__ == "__main__":
    main()
