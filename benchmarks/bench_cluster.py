"""Sharded cluster serving: scaling, failover migration, and the gateway.

Drives the :class:`repro.cluster.serve.ClusterServingSystem` under the
seeded diurnal/bursty loadgen trace and records four proofs into
``BENCH_cluster.json`` at the repo root:

* **scaling** — the same trace served by 1 -> 8 nodes (2 GPUs each); the
  acceptance ratio is 8-node over 1-node deadline-met throughput and must
  be >= 4x in the full sweep (the offered load saturates a single node);
* **failover** — a node is killed mid-trace; its in-flight tenants are
  checkpoint-migrated onto survivors, the cluster-wide exactly-once audit
  must come back clean (zero lost, zero duplicated completions) and every
  migrated session page on the corpse must byte-audit as scrubbed;
* **replay** — the failover scenario runs twice from the same seed and
  the two cluster fingerprints must be **byte-identical**;
* **workflow** — a GPU+NPU DAG invoked through the serverless gateway
  with its stage images pinned to different machines: the run must span
  >= 2 nodes and emit one validated Chrome trace whose spans are causally
  linked across the node boundary.

Every "must" above is a rule of the bench contract
(``scripts/check_bench_schema.py``), which holds the document to it
before the bench exits.

Run standalone (writes ``BENCH_cluster.json``)::

    PYTHONPATH=src python benchmarks/bench_cluster.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke   # CI slice

or as the deselected ``cluster`` pytest marker::

    pytest -m cluster benchmarks/bench_cluster.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import pytest
except ImportError:  # standalone invocation does not need pytest
    pytest = None

from repro.cluster import Cluster, ClusterServingSystem
from repro.gateway import Gateway, Stage, Workflow
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import check, gate  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_cluster.json"

SCHEMA = "cronus.bench_cluster/v1"

GPUS_PER_NODE = 2
MAX_BATCH = 64
MAX_DELAY_US = 2_000.0
MEAN_RATE_RPS = 600_000.0
DEADLINE_US = 100_000.0
STEAL_THRESHOLD = 64

FULL_REQUESTS = 100_000
FULL_NODES = (1, 2, 4, 8)
FULL_FAILOVER_NODES = 4
FULL_SCALING_FLOOR = 4.0

SMOKE_REQUESTS = 20_000
SMOKE_NODES = (1, 2)
SMOKE_FAILOVER_NODES = 3
SMOKE_SCALING_FLOOR = 1.3

KILLED_NODE = "node1"
KILL_FRACTION = 0.4  # kill strikes this far into the offered trace


def cluster_profile(requests):
    """The trace profile of one sweep (pure function of the scale).

    The 100 ms deadline is deliberately tight against the offered 600k
    rps: a single 2-GPU node saturates and expires most of the trace, so
    the 1 -> 8 node sweep measures real capacity scaling, not slack."""
    return LoadProfile(
        requests=requests,
        mean_rate_rps=MEAN_RATE_RPS,
        deadline_us=DEADLINE_US,
    )


def build_serving(nodes):
    """A fresh cluster serving system over ``nodes`` machines."""
    cluster = Cluster(num_nodes=nodes, gpus_per_node=GPUS_PER_NODE)
    return ClusterServingSystem(
        cluster,
        max_batch=MAX_BATCH,
        max_delay_us=MAX_DELAY_US,
        service_model=synthetic_service_model(),
        steal_threshold=STEAL_THRESHOLD,
    )


def _loss_accounting(report):
    """(lost, duplicated) computed from the per-node terminal sets —
    independent of the audit's string rendering."""
    admitted, expired, rejected_after = set(), set(), set()
    completed_on = {}
    for name in report.node_names:
        rep = report.per_node[name]
        admitted |= rep.admitted
        expired |= rep.expired
        rejected_after |= rep.rejected_after_admit
        for rid in rep.completed:
            completed_on.setdefault(rid, []).append(name)
    duplicated = sum(1 for nodes in completed_on.values() if len(nodes) > 1)
    terminal = set(completed_on) | expired | rejected_after
    return len(admitted - terminal), duplicated


def run_point(nodes, specs, requests, *, kill_at_us=None, label=None):
    """One measured cluster run; returns (row, report)."""
    serving = build_serving(nodes)
    serving.add_tenants(specs)
    kills = [(kill_at_us, KILLED_NODE)] if kill_at_us is not None else []
    t0 = time.perf_counter()
    report = serving.run(requests, node_kill_events=kills)
    wall_s = time.perf_counter() - t0
    audit = report.audit_exactly_once()
    if audit:
        raise SystemExit(
            f"{label or nodes} exactly-once audit failed: {audit[:3]}"
        )
    row = {
        "nodes": nodes,
        "devices": nodes * GPUS_PER_NODE,
        "wall_s": round(wall_s, 4),
        "makespan_us": round(report.makespan_us, 3),
        "completed": report.completed_total,
        "deadline_met": report.deadline_met_total,
        "expired": report.expired_total,
        "throughput_rps": round(report.throughput_rps, 1),
        "steals": report.steals,
        "migrations": len(report.migrations),
        "fingerprint": report.fingerprint,
    }
    return row, report


def run_failover(nodes, specs, requests, kill_at_us):
    """The node-kill scenario plus its byte-identical replay."""
    row, report = run_point(
        nodes, specs, requests, kill_at_us=kill_at_us, label="failover"
    )
    lost, duplicated = _loss_accounting(report)
    replay_row, _ = run_point(
        nodes, specs, requests, kill_at_us=kill_at_us, label="failover-replay"
    )
    failover = {
        "nodes": nodes,
        "killed_node": KILLED_NODE,
        "kill_t_us": kill_at_us,
        "migrations": len(report.migrations),
        "migrated_requests": report.migrated_requests,
        "orphaned": report.orphaned,
        "scrub_pages_audited": report.scrub_pages_audited,
        "scrub_violations": report.scrub_violations,
        "restore_mismatches": report.restore_mismatches,
        "lost": lost,
        "duplicated": duplicated,
        "exactly_once": True,  # run_point raised otherwise
        "completed": report.completed_total,
        "expired": report.expired_total,
        "fingerprint": report.fingerprint,
    }
    replay = {
        "fingerprints_equal": row["fingerprint"] == replay_row["fingerprint"],
        "fingerprint": row["fingerprint"],
    }
    return failover, replay


def run_workflow():
    """The cross-node GPU+NPU DAG through the gateway, with its trace."""
    cluster = Cluster(num_nodes=2, gpus_per_node=1)
    serving = ClusterServingSystem(cluster, migration=False)
    gateway = Gateway(serving)
    # Pin the GPU stage's image to node0 and the NPU stage's to node1 so
    # the DAG must cross the machine boundary both ways.
    gateway.place_image("fn:matmul", ["node0"])
    gateway.place_image("fn:tvm.infer", ["node1"])
    flow = Workflow(
        "gpu-npu",
        [
            Stage("pre", "matmul", args={"size": 12}),
            Stage("infer", "tvm.infer", after=("pre",)),
            Stage("post", "matmul", args={"size": 8}, after=("infer",)),
        ],
    )
    result = gateway.invoke_workflow(flow)
    trace = chrome_trace(gateway.obs.spans(trace_id=result.trace_id))
    problems = validate_chrome_trace(trace)
    spans = {
        s.context.span_id: s
        for s in gateway.obs.spans(trace_id=result.trace_id)
    }
    causal_links = sum(
        1
        for s in spans.values()
        if s.name.startswith(("fn:", "xfer:"))
        and s.context.parent_id in spans
        and spans[s.context.parent_id].partition != s.partition
        and spans[s.context.parent_id].name.startswith("fn:")
    )
    return {
        "name": result.name,
        "stages": len(flow.stages),
        "nodes": list(result.nodes),
        "nodes_spanned": result.nodes_spanned,
        "cross_node_transfers": result.cross_node_transfers,
        "transfer_us": round(result.transfer_us, 3),
        "makespan_us": round(result.makespan_us, 3),
        "trace_events": len(trace["traceEvents"]),
        "trace_problems": problems,
        "schema_ok": not problems,
        "causal_cross_node_links": causal_links,
    }


def run_bench(*, smoke=False, log=print):
    """The full measurement document (everything but the output path)."""
    requests_n = SMOKE_REQUESTS if smoke else FULL_REQUESTS
    node_sweep = SMOKE_NODES if smoke else FULL_NODES
    failover_nodes = SMOKE_FAILOVER_NODES if smoke else FULL_FAILOVER_NODES
    floor = SMOKE_SCALING_FLOOR if smoke else FULL_SCALING_FLOOR
    profile = cluster_profile(requests_n)
    specs, requests = generate_trace(profile)
    kill_at_us = round(KILL_FRACTION * requests_n / MEAN_RATE_RPS * 1e6, 1)

    rows = []
    for nodes in node_sweep:
        row, _ = run_point(nodes, specs, requests, label=f"{nodes}-node")
        rows.append(row)
        log(
            f"  {nodes:>2} node(s): {row['deadline_met']:>7,} deadline-met in "
            f"{row['makespan_us'] / 1e6:6.3f}s sim "
            f"({row['throughput_rps']:>10,.0f} rps, {row['wall_s']:.1f}s wall)"
        )
    low, high = rows[0], rows[-1]
    scaling = {
        "low_nodes": low["nodes"],
        "high_nodes": high["nodes"],
        "low_rps": low["throughput_rps"],
        "high_rps": high["throughput_rps"],
        "ratio": round(high["throughput_rps"] / low["throughput_rps"], 2),
        "floor": floor,
    }
    log(
        f"  scaling {low['nodes']}->{high['nodes']} nodes: "
        f"{scaling['ratio']}x (floor {floor}x)"
    )

    failover, replay = run_failover(failover_nodes, specs, requests, kill_at_us)
    log(
        f"  failover: killed {failover['killed_node']} at "
        f"{kill_at_us / 1e3:.1f}ms, {failover['migrations']} restores / "
        f"{failover['migrated_requests']} requests migrated, "
        f"{failover['scrub_pages_audited']} pages scrub-audited, "
        f"lost={failover['lost']} duplicated={failover['duplicated']}, "
        f"replay {'identical' if replay['fingerprints_equal'] else 'DIVERGED'}"
    )

    workflow = run_workflow()
    log(
        f"  workflow: {workflow['name']} spans {workflow['nodes_spanned']} nodes "
        f"({', '.join(workflow['nodes'])}), {workflow['cross_node_transfers']} "
        f"transfers, trace {'ok' if workflow['schema_ok'] else 'INVALID'} "
        f"({workflow['causal_cross_node_links']} cross-node causal links)"
    )

    return {
        "schema": SCHEMA,
        "config": {
            "gpus_per_node": GPUS_PER_NODE,
            "max_batch": MAX_BATCH,
            "max_delay_us": MAX_DELAY_US,
            "mean_rate_rps": MEAN_RATE_RPS,
            "requests": requests_n,
            "tenants": profile.tenants,
            "seed": profile.seed,
            "steal_threshold": STEAL_THRESHOLD,
            "service_model": repr(synthetic_service_model()),
        },
        "rows": rows,
        "scaling": scaling,
        "failover": failover,
        "replay": replay,
        "workflow": workflow,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized slice (8k requests, 1-2 nodes) instead of the full sweep",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    print(f"bench_cluster: {'smoke' if args.smoke else 'full'} sweep")
    doc = run_bench(smoke=args.smoke)
    doc["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if gate(args.output):
        raise SystemExit(1)
    return doc


if pytest is not None:

    @pytest.mark.cluster
    def test_cluster_smoke():
        """The CI smoke slice honours the bench contract: scaling helps,
        failover loses nothing and replay is byte-identical."""
        doc = run_bench(smoke=True, log=lambda *_: None)
        doc["mode"] = "smoke"
        assert check(json.loads(json.dumps(doc))) == []


if __name__ == "__main__":
    main()
