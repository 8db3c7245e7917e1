"""The bench contract (``scripts/check_bench_schema.py``).

Every committed ``BENCH_*.json`` honours its contract, and each entry of
the mutation table — one committed document with one rule broken — is
refused with the failure naming that rule.  The table holds at least one
mutation per rule: missing key, wrong type, bool in a number field, bad
fingerprint, non-positive value, non-zero loss counter, false flag, each
relational rule and each recorded floor, ceiling and acceptance bar.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import SCHEMAS, check, gate  # noqa: E402

NAMES = ("scale", "autoscale", "llm", "cluster", "obs")
DOCS = {
    name: json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    for name in NAMES
}
DELETE = object()
OTHER_HEX = "f" * 64  # a well-formed fingerprint no committed run rendered


def _p(text):
    """``"rows.0.fingerprint"`` -> ``("rows", 0, "fingerprint")``."""
    return tuple(int(k) if k.isdigit() else k for k in text.split("."))


def mutation(doc, changes, expected):
    return pytest.param(
        doc,
        {_p(path): value for path, value in changes.items()},
        expected,
        id=f"{doc}:" + ",".join(
            path + ("-del" if value is DELETE else f"={value!r}"[:24])
            for path, value in changes.items()
        ),
    )


MUTATIONS = [
    # Envelope and dispatch.
    mutation("scale", {"schema": "cronus.bench_nope/v1"}, "unknown schema tag"),
    mutation("obs", {"schema": DELETE}, "unknown schema tag"),
    mutation("scale", {"mode": "fast"}, "mode 'fast' not in"),
    mutation("llm", {"mode": DELETE}, "missing key 'mode'"),
    # bench_scale.
    mutation("scale", {"config": []}, "config: expected an object"),
    mutation("scale", {"config.seed": DELETE}, "missing key 'seed'"),
    mutation("scale", {"config.service_model": 5}, "'service_model' has type int"),
    mutation("scale", {"config.devices": True}, "'devices' has type bool"),
    mutation("scale", {"rows": []}, "rows must be a non-empty list"),
    mutation("scale", {"rows": {}}, "rows must be a non-empty list"),
    mutation("scale", {"rows.0": 5}, "rows[0]: expected an object"),
    mutation("scale", {"rows.0.completed": DELETE}, "missing key 'completed'"),
    mutation("scale", {"rows.0.wall_s": "1.0"}, "'wall_s' has type str"),
    mutation("scale", {"rows.0.expired": False}, "'expired' has type bool"),
    mutation("scale", {"rows.0.engine": "scan"}, "engine 'scan' not in"),
    mutation("scale", {"rows.0.fingerprint": "abc"}, "not 64 hex"),
    mutation("scale", {"rows.1.fingerprint": "A" * 64}, "not 64 hex"),
    mutation("scale", {"rows.0.arrivals": 0}, "arrivals must be positive"),
    mutation("scale", {"rows.2.wall_s": 0.0}, "wall_s must be positive"),
    mutation("scale", {"rows.3.req_per_s": -1.0}, "req_per_s must be positive"),
    mutation("scale", {"rows.0.arrivals": 2_000}, "has no heap row"),
    mutation("scale", {"equivalence": []}, "equivalence must be a non-empty"),
    mutation("scale", {"equivalence.0": "x"}, "equivalence[0]: expected an object"),
    mutation(
        "scale", {"equivalence.1.fingerprints_equal": False},
        "fingerprints_equal is not true",
    ),
    mutation("scale", {"equivalence.0.arrivals": 5}, "no measured row pair"),
    mutation("scale", {"rows.1.fingerprint": OTHER_HEX}, "row fingerprints differ"),
    mutation("scale", {"speedup.heap_req_per_s": DELETE}, "missing key"),
    mutation("scale", {"speedup.ratio": "11x"}, "'ratio' has type str"),
    mutation("scale", {"speedup.arrivals": 1_000_000}, "unmeasured point"),
    mutation("scale", {"speedup.ratio": 0}, "ratio must be positive"),
    # bench_autoscale.
    mutation("autoscale", {"config.arrivals": DELETE}, "missing key 'arrivals'"),
    mutation("autoscale", {"config.policy": "x"}, "'policy' has type str"),
    mutation("autoscale", {"config.policy.headroom": DELETE}, "missing key"),
    mutation("autoscale", {"config.policy.min_devices": 2.5}, "has type float"),
    mutation("autoscale", {"rows.0.boots": DELETE}, "missing key 'boots'"),
    mutation("autoscale", {"rows.1.retires": True}, "'retires' has type bool"),
    mutation("autoscale", {"rows.0.scale_fingerprint": "00"}, "not 64 hex"),
    mutation("autoscale", {"rows.2.fingerprint": "g" * 64}, "not 64 hex"),
    mutation("autoscale", {"rows.0.arrivals": 0}, "arrivals must be positive"),
    mutation("autoscale", {"rows.1.device_seconds": 0}, "device_seconds must be"),
    mutation("autoscale", {"rows.0.makespan_us": -1.0}, "makespan_us must be"),
    mutation("autoscale", {"rows.0.config": "baseline"}, "no 'static'"),
    mutation("autoscale", {"rows.1.config": "auto"}, "no 'autoscaled'"),
    mutation(
        "autoscale", {"rows.2.config": "again-1", "rows.3.config": "again-2"},
        "no replay rows",
    ),
    mutation("autoscale", {"rows.2.fingerprint": OTHER_HEX}, "replay-1: fingerprint"),
    mutation("autoscale", {"rows.3.scale_fingerprint": OTHER_HEX}, "scale_fingerprint"),
    mutation("autoscale", {"savings.saving_fraction": 0.5}, "inconsistent"),
    mutation("autoscale", {"savings.floor": DELETE}, "missing key 'floor'"),
    mutation("autoscale", {"p99.worst_tenant": DELETE}, "missing key"),
    mutation("autoscale", {"p99.min_samples": True}, "has type bool"),
    mutation("autoscale", {"replay": DELETE}, "replay: expected an object"),
    mutation(
        "autoscale", {"replay.slo_fingerprints_equal": False},
        "slo_fingerprints_equal is not true",
    ),
    mutation(
        "autoscale", {"replay.scale_fingerprints_equal": DELETE},
        "scale_fingerprints_equal is not true",
    ),
    # bench_llm.
    mutation("llm", {"config.block_tokens": DELETE}, "missing key"),
    mutation("llm", {"config.d_model": 128.0}, "'d_model' has type float"),
    mutation("llm", {"rows.0.config": "batched"}, "config 'batched' not in"),
    mutation("llm", {"rows.1.itl_p99_us": None}, "has type NoneType"),
    mutation("llm", {"rows.0.token_fingerprint": "x" * 64}, "not 64 hex"),
    mutation("llm", {"rows.1.slo_fingerprint": ""}, "not 64 hex"),
    mutation("llm", {"rows.0.sequences": 0}, "sequences must be positive"),
    mutation("llm", {"rows.1.tokens": 0}, "tokens must be positive"),
    mutation("llm", {"rows.2.tokens_per_s": 0.0}, "tokens_per_s must be positive"),
    mutation("llm", {"rows.3.makespan_us": -5.0}, "makespan_us must be positive"),
    mutation("llm", {"rows.3": DELETE}, "no 'crash' row"),
    mutation("llm", {"speedup.ratio": 1.0}, "does not beat the static baseline"),
    mutation("llm", {"speedup.static_tokens_per_s": 1.0}, "speedup block inconsistent"),
    mutation("llm", {"speedup.ratio": DELETE}, "missing key 'ratio'"),
    mutation("llm", {"replay": DELETE}, "replay: expected an object"),
    mutation("llm", {"replay.fingerprints_equal": False}, "fingerprints_equal is not"),
    mutation("llm", {"rows.2.token_fingerprint": OTHER_HEX}, "replay row token_"),
    mutation("llm", {"rows.2.slo_fingerprint": OTHER_HEX}, "replay row slo_"),
    mutation("llm", {"recovery.crashes": []}, "crashes must be positive"),
    mutation("llm", {"recovery.crashes": "gpu0"}, "'crashes' has type str"),
    mutation("llm", {"recovery.scrub_violations": 1}, "scrub_violations must be 0"),
    mutation("llm", {"recovery.kv_leaks": 3}, "kv_leaks must be 0"),
    mutation("llm", {"recovery.sequences_lost": 2}, "sequences_lost must be 0"),
    mutation(
        "llm", {"recovery.exactly_once_reprefill": False},
        "exactly_once_reprefill is not true",
    ),
    mutation("llm", {"recovery.reprefills": 999}, "inconsistent with the crash row"),
    # bench_cluster.
    mutation("cluster", {"config.steal_threshold": DELETE}, "missing key"),
    mutation("cluster", {"rows.0.steals": 1.5}, "'steals' has type float"),
    mutation("cluster", {"rows.1.fingerprint": "f" * 63}, "not 64 hex"),
    mutation("cluster", {"rows.0.nodes": 0}, "nodes must be positive"),
    mutation("cluster", {"rows.2.throughput_rps": 0}, "throughput_rps must be"),
    mutation("cluster", {"rows.3.makespan_us": 0.0}, "makespan_us must be positive"),
    mutation("cluster", {"scaling.high_nodes": 16}, "unmeasured point high_nodes"),
    mutation("cluster", {"scaling.ratio": 3.0}, "below its recorded floor"),
    mutation("cluster", {"scaling.floor": 2.0}, "full-mode floor must be >= 4.0"),
    mutation("cluster", {"scaling.floor": DELETE}, "missing key 'floor'"),
    mutation("cluster", {"failover.killed_node": DELETE}, "missing key"),
    mutation("cluster", {"failover.lost": False}, "'lost' has type bool"),
    mutation("cluster", {"failover.fingerprint": "nope"}, "not 64 hex"),
    mutation("cluster", {"failover.exactly_once": False}, "exactly_once is not true"),
    mutation("cluster", {"failover.lost": 1}, "lost must be 0"),
    mutation("cluster", {"failover.duplicated": 2}, "duplicated must be 0"),
    mutation("cluster", {"failover.orphaned": 1}, "orphaned must be 0"),
    mutation("cluster", {"failover.scrub_violations": 4}, "scrub_violations must"),
    mutation("cluster", {"failover.restore_mismatches": 1}, "restore_mismatches"),
    mutation("cluster", {"failover.migrations": 0}, "migrations must be positive"),
    mutation("cluster", {"failover.migrated_requests": 0}, "migrated_requests"),
    mutation("cluster", {"failover.scrub_pages_audited": 0}, "scrub_pages_audited"),
    mutation("cluster", {"replay": DELETE}, "replay: expected an object"),
    mutation("cluster", {"replay.fingerprints_equal": False}, "is not true"),
    mutation("cluster", {"replay.fingerprint": OTHER_HEX}, "differs from the failover"),
    mutation("cluster", {"replay.fingerprint": "abc"}, "not 64 hex"),
    mutation("cluster", {"workflow.stages": DELETE}, "missing key 'stages'"),
    mutation("cluster", {"workflow.nodes": "node0"}, "'nodes' has type str"),
    mutation("cluster", {"workflow.schema_ok": False}, "schema_ok is not true"),
    mutation("cluster", {"workflow.trace_problems": ["ph"]}, "trace_problems must"),
    mutation("cluster", {"workflow.nodes_spanned": 1}, "nodes_spanned must be >= 2"),
    mutation("cluster", {"workflow.cross_node_transfers": 0}, "cross_node_transfers"),
    mutation("cluster", {"workflow.causal_cross_node_links": 0}, "causal_cross_node"),
    # bench_obs.
    mutation("obs", {"config.scrape_interval_us": DELETE}, "missing key"),
    mutation("obs", {"config.nodes": "3"}, "'nodes' has type str"),
    mutation("obs", {"overhead.repeats": True}, "'repeats' has type bool"),
    mutation("obs", {"overhead.fingerprint": "0" * 65}, "not 64 hex"),
    mutation("obs", {"overhead.off_wall_s": 0.0}, "off_wall_s must be positive"),
    mutation("obs", {"overhead.instrumented_wall_s": 0}, "instrumented_wall_s must"),
    mutation("obs", {"overhead.pipeline_wall_s": -1.0}, "pipeline_wall_s must"),
    mutation("obs", {"overhead.ratio": 0.0}, "ratio must be positive"),
    mutation("obs", {"overhead.instrumentation_ratio": 0}, "instrumentation_ratio"),
    mutation("obs", {"overhead.makespan_us": 0}, "makespan_us must be positive"),
    mutation("obs", {"overhead.ratio": 1.2}, "exceeds its recorded ceiling"),
    mutation("obs", {"overhead.ceiling": 1.5}, "full-mode ceiling must be <= 1.1"),
    mutation("obs", {"overhead.report_fingerprints_equal": False}, "is not true"),
    mutation("obs", {"overhead.makespans_equal": DELETE}, "makespans_equal is not"),
    mutation("obs", {"node_kill.severity": DELETE}, "missing key 'severity'"),
    mutation("obs", {"node_kill.within_one_interval": False}, "within_one_interval"),
    mutation("obs", {"node_kill.schema_ok": False}, "schema_ok is not true"),
    mutation("obs", {"node_kill.trace_problems": ["x", "y"]}, "trace_problems must"),
    mutation("obs", {"node_kill.detection_us": -1.0}, "detection_us must be >= 0"),
    mutation("obs", {"node_kill.recovery_trace_events": 0}, "recovery_trace_events"),
    mutation("obs", {"node_kill.dumped_traces": 0}, "dumped_traces must be >= 1"),
    mutation("obs", {"node_kill.alerts_total": 0}, "alerts_total must be >= 1"),
    mutation("obs", {"noisy.threshold": "0.5"}, "'threshold' has type str"),
    mutation("obs", {"noisy.within_slow_window": False}, "within_slow_window"),
    mutation("obs", {"noisy.victim_false_pages": 1}, "victim_false_pages must be 0"),
    mutation("obs", {"noisy.detection_us": -1.0}, "detection_us must be >= 0"),
    mutation("obs", {"noisy.value": 0.5}, "does not breach threshold"),
    mutation("obs", {"replay.store_fingerprints_equal": False}, "is not true"),
    mutation("obs", {"replay.alert_fingerprints_equal": False}, "is not true"),
    mutation("obs", {"replay.fingerprint": None}, "has type NoneType"),
    mutation("obs", {"replay.fingerprint": "z" * 64}, "not 64 hex"),
    mutation("obs", {"replay.scrapes": 0}, "scrapes must be >= 1"),
    mutation("obs", {"replay.series": 0}, "series must be >= 1"),
    mutation("obs", {"replay.alerts": 0}, "alerts must be >= 1"),
    mutation("obs", {"sampler.byte_budget": DELETE}, "missing key 'byte_budget'"),
    mutation("obs", {"sampler.considered": 0}, "considered must be >= 1"),
    mutation("obs", {"sampler.retained": 0}, "retained must be positive"),
    mutation("obs", {"sampler.retained": 40_000}, "over-counted"),
]

# Recorded floors and ceilings the documents carried but that only a
# full-mode bench run compared against, and the scale speedup bars.
BOUND_MUTATIONS = [
    mutation("autoscale", {"savings.floor": 0.9}, "below its recorded floor"),
    mutation("autoscale", {"p99.ceiling": 1.0}, "exceeds its recorded ceiling"),
    mutation("autoscale", {"p99.tenants_gated": 0}, "tenants_gated must be >= 1"),
    mutation("autoscale", {"savings.floor": 0.1}, "full-mode floor must be >= 0.25"),
    mutation("autoscale", {"p99.ceiling": 1.5}, "full-mode ceiling must be <= 1.1"),
    mutation("scale", {"speedup.ratio": 2.0}, "below the 10x full-sweep"),
    mutation(
        "scale", {"mode": "smoke", "speedup.ratio": 3.0}, "not a decisive (> 3x) win"
    ),
]


def apply(doc, changes):
    doc = copy.deepcopy(doc)
    for (*parents, last), value in changes.items():
        node = doc
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc


@pytest.mark.parametrize("name", NAMES)
def test_committed_document_honours_its_contract(name):
    assert check(DOCS[name]) == []


@pytest.mark.parametrize("name, changes, expected", MUTATIONS + BOUND_MUTATIONS)
def test_mutation_is_refused_by_its_rule(name, changes, expected):
    failures = check(apply(DOCS[name], changes))
    assert any(expected in failure for failure in failures), failures


@pytest.mark.parametrize("tag", ["cronus.bench_scale/v2", None, 7, ["x"]])
def test_unknown_tag_is_one_failure_naming_the_known_tags(tag):
    doc = dict(DOCS["cluster"], schema=tag)
    (failure,) = check(doc)
    assert all(known in failure for known in SCHEMAS)


def test_document_root_must_be_an_object():
    assert check([DOCS["scale"]]) == ["document root must be an object, got list"]


def test_every_rule_names_a_declared_field():
    # A rule on an undeclared key would be skipped silently.
    for tag, schema in SCHEMAS.items():
        for block in schema.blocks:
            keys = (
                set(block.hex) | set(block.positive) | set(block.zero)
                | set(block.at_least) | set(block.choices)
            )
            assert keys <= set(block.fields), (tag, block.path)
            assert not set(block.true) & set(block.fields), (tag, block.path)


@pytest.mark.parametrize("name", NAMES)
def test_gate_prints_the_summary_or_every_failure(name, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(DOCS[name]))
    assert gate(good) == 0
    assert capsys.readouterr().out.startswith(f"bench schema ok: {good}: ")
    bad_doc = dict(DOCS[name], mode="fast", config=None)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_doc))
    assert gate(bad) == 1
    assert capsys.readouterr().err.count("FAIL: ") == len(check(bad_doc)) > 1
    assert gate(tmp_path / "missing.json") == 1
