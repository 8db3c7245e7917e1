#!/usr/bin/env python
"""The bench contract: every acceptance rule of the ``BENCH_*.json`` documents.

This module is the one home of those rules.  It is self-contained — it
imports nothing from the generators — and it runs twice: each bench
calls :func:`gate` on the document it just wrote before it exits, and CI
runs it again on the uploaded artifact.

Each schema tag maps to a :class:`Schema`: a table of :class:`Block`
rules walked generically, one relational function for the rules that
compare fields across blocks or against a recorded floor or ceiling, and
the one-line success summary.  A block names an object of the document
(or a non-empty list of them) by its dotted path and lists

* its required fields and their types (a bool never passes as a number,
  so flags are listed separately and must be ``is True``);
* which fields are 64-hex sha256 fingerprints;
* which must be positive, which must be zero and which have an inclusive
  minimum (a list counts by its length, so "zero" means "empty");
* which fields must take one of a fixed set of values.

The relational function runs only on a document whose blocks are all
well formed, so it may index freely.  Acceptance bars that depend on the
run's size: a full-mode document may not record a floor or ceiling
laxer than the acceptance bar (autoscale saving >= 25% at p99 within
1.10x, cluster scaling >= 4x, telemetry overhead <= 1.10x), and the heap
engine must beat the legacy engine by >= 10x in a full sweep but only by
more than 3x in the 10k smoke slice, so a noisy shared CI runner cannot
flake the smoke.

Usage: ``python scripts/check_bench_schema.py [BENCH_*.json]``
Exit status 0 = the document honours its contract.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple

NUM = (int, float)
MODES = ("full", "smoke")
ENGINES = ("heap", "legacy")
LLM_ROW_CONFIGS = ("continuous", "static", "replay", "crash")


class Block(NamedTuple):
    """The per-field rules of one object of a document."""

    path: str  # dotted path from the document root; "" is the root
    fields: dict  # required key -> accepted type(s)
    each: bool = False  # the path holds a non-empty list of such objects
    hex: tuple = ()
    positive: tuple = ()
    zero: tuple = ()
    at_least: dict = {}  # key -> inclusive minimum
    true: tuple = ()
    choices: dict = {}  # key -> allowed values


class Schema(NamedTuple):
    blocks: tuple
    relations: Callable  # doc -> iterable of failures (cross-block rules)
    summary: Callable  # doc -> the success line


ROOT = Block("", {"mode": str}, choices={"mode": MODES})


def _is_fingerprint(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 64
        and all(c in "0123456789abcdef" for c in value)
    )


def _walk(doc, block, failures):
    node = doc
    for key in filter(None, block.path.split(".")):
        node = node.get(key) if isinstance(node, dict) else None
    if not block.each:
        _check_object(node, block, block.path or "document", failures)
    elif not isinstance(node, list) or not node:
        failures.append(f"{block.path} must be a non-empty list")
    else:
        for i, obj in enumerate(node):
            _check_object(obj, block, f"{block.path}[{i}]", failures)


def _check_object(obj, block, where, failures):
    if not isinstance(obj, dict):
        failures.append(f"{where}: expected an object, got {type(obj).__name__}")
        return
    typed = {}
    for key, types in block.fields.items():
        if key not in obj:
            failures.append(f"{where}: missing key {key!r}")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool):
            failures.append(f"{where}: {key!r} has type {type(obj[key]).__name__}")
        else:
            typed[key] = obj[key]
    size = {k: len(v) if isinstance(v, list) else v for k, v in typed.items()}
    for key in block.hex:
        if key in typed and not _is_fingerprint(typed[key]):
            failures.append(f"{where}: {key} is not 64 hex chars")
    for key in block.positive:
        if key in size and size[key] <= 0:
            failures.append(f"{where}: {key} must be positive, got {size[key]}")
    for key in block.zero:
        if key in size and size[key] != 0:
            failures.append(f"{where}: {key} must be 0, got {size[key]}")
    for key, least in block.at_least.items():
        if key in size and size[key] < least:
            failures.append(f"{where}: {key} must be >= {least}, got {size[key]}")
    for key in block.true:
        if obj.get(key) is not True:
            failures.append(f"{where}: {key} is not true")
    for key, allowed in block.choices.items():
        if key in typed and typed[key] not in allowed:
            failures.append(f"{where}: {key} {typed[key]!r} not in {allowed}")


def _floor(doc, where, value, floor, full_bar):
    """``value`` honours its recorded ``floor``, which a full-mode
    document may not set below the acceptance bar."""
    if value < floor:
        yield f"{where} {value} below its recorded floor {floor}"
    if doc["mode"] == "full" and floor < full_bar:
        yield f"{where}: full-mode floor must be >= {full_bar}, got {floor}"


def _ceiling(doc, where, value, ceiling, full_bar):
    """``value`` honours its recorded ``ceiling``, which a full-mode
    document may not set above the acceptance bar."""
    if value > ceiling:
        yield f"{where} {value} exceeds its recorded ceiling {ceiling}"
    if doc["mode"] == "full" and ceiling > full_bar:
        yield f"{where}: full-mode ceiling must be <= {full_bar}, got {ceiling}"


def _scale_relations(doc):
    rows = {(r["engine"], r["arrivals"]): r for r in doc["rows"]}
    for engine, arrivals in rows:
        if engine == "legacy" and ("heap", arrivals) not in rows:
            yield f"legacy row at {arrivals} arrivals has no heap row"
    for i, point in enumerate(doc["equivalence"]):
        arrivals = point["arrivals"]
        pair = [rows.get((engine, arrivals)) for engine in ENGINES]
        if None in pair:
            yield f"equivalence[{i}]: no measured row pair at {arrivals} arrivals"
        elif pair[0]["fingerprint"] != pair[1]["fingerprint"]:
            yield (
                f"equivalence[{i}]: recorded equal but row fingerprints differ "
                f"at {arrivals} arrivals"
            )
    speedup = doc["speedup"]
    if any((engine, speedup["arrivals"]) not in rows for engine in ENGINES):
        yield f"speedup references unmeasured point {speedup['arrivals']!r}"
    ratio = speedup["ratio"]
    if doc["mode"] == "full" and ratio < 10.0:
        yield f"speedup {ratio}x below the 10x full-sweep acceptance floor"
    if doc["mode"] == "smoke" and ratio <= 3.0:
        yield f"smoke speedup {ratio}x is not a decisive (> 3x) win"


def _autoscale_relations(doc):
    rows = {r["config"]: r for r in doc["rows"]}
    static, auto = rows.get("static"), rows.get("autoscaled")
    replays = [r for c, r in sorted(rows.items()) if c.startswith("replay")]
    if static is None:
        yield "rows: no 'static' baseline row"
    if auto is None:
        yield "rows: no 'autoscaled' row"
    if not replays:
        yield "rows: no replay rows"
    savings, p99 = doc["savings"], doc["p99"]
    if auto is not None:
        for replay in replays:
            for key in ("fingerprint", "scale_fingerprint"):
                if replay[key] != auto[key]:
                    yield f"{replay['config']}: {key} differs from autoscaled row"
        if static is not None:
            derived = 1.0 - auto["device_seconds"] / static["device_seconds"]
            if abs(savings["saving_fraction"] - derived) > 1e-3:
                yield (
                    f"savings: saving_fraction {savings['saving_fraction']} "
                    f"inconsistent with the rows (derived {derived:.4f})"
                )
    yield from _floor(
        doc, "savings: saving_fraction", savings["saving_fraction"],
        savings["floor"], 0.25,
    )
    yield from _ceiling(
        doc, f"p99: tenant {p99['worst_tenant']} worst_ratio", p99["worst_ratio"],
        p99["ceiling"], 1.10,
    )


def _llm_relations(doc):
    speedup = doc["speedup"]
    if speedup["ratio"] <= 1.0:
        yield f"speedup ratio {speedup['ratio']} does not beat the static baseline"
    rows = {r["config"]: r for r in doc["rows"]}
    missing = [config for config in LLM_ROW_CONFIGS if config not in rows]
    for config in missing:
        yield f"rows: no {config!r} row"
    if missing:
        return
    continuous, static, replay, crash = (rows[c] for c in LLM_ROW_CONFIGS)
    if (
        speedup["continuous_tokens_per_s"] != continuous["tokens_per_s"]
        or speedup["static_tokens_per_s"] != static["tokens_per_s"]
    ):
        yield "speedup block inconsistent with the rows"
    for key in ("token_fingerprint", "slo_fingerprint"):
        if replay[key] != continuous[key]:
            yield f"replay row {key} differs from the continuous row"
    if doc["recovery"]["reprefills"] != crash["reprefills"]:
        yield "recovery block inconsistent with the crash row"


def _cluster_relations(doc):
    measured = {row["nodes"] for row in doc["rows"]}
    scaling = doc["scaling"]
    for key in ("low_nodes", "high_nodes"):
        if scaling[key] not in measured:
            yield f"scaling references unmeasured point {key}"
    yield from _floor(
        doc, "scaling ratio", scaling["ratio"], scaling["floor"], 4.0
    )
    if doc["replay"]["fingerprint"] != doc["failover"]["fingerprint"]:
        yield "replay fingerprint differs from the failover row"


def _obs_relations(doc):
    overhead, noisy, sampler = doc["overhead"], doc["noisy"], doc["sampler"]
    yield from _ceiling(
        doc, "overhead ratio", overhead["ratio"], overhead["ceiling"], 1.10
    )
    if noisy["value"] <= noisy["threshold"]:
        yield (
            f"noisy: fired value {noisy['value']} does not breach threshold "
            f"{noisy['threshold']}"
        )
    if sampler["retained"] > sampler["considered"]:
        yield (
            f"sampler: retained {sampler['retained']} of "
            f"{sampler['considered']} (tail sampling over-counted)"
        )


SCALE_CONFIG = {
    "devices": int,
    "max_batch": int,
    "max_delay_us": NUM,
    "mean_rate_rps": NUM,
    "tenants": int,
    "seed": int,
    "service_model": str,
}
SCALE_ROW = {
    "engine": str,
    "arrivals": int,
    "tenants": int,
    "devices": int,
    "wall_s": NUM,
    "req_per_s": NUM,
    "completed": int,
    "expired": int,
    "fingerprint": str,
}
SCALE_SPEEDUP = {
    "arrivals": int,
    "heap_req_per_s": NUM,
    "legacy_req_per_s": NUM,
    "ratio": NUM,
}

AUTOSCALE_CONFIG = {
    "devices": int,
    "max_batch": int,
    "max_delay_us": NUM,
    "arrivals": int,
    "tenants": int,
    "seed": int,
    "mean_rate_rps": NUM,
    "service_model": str,
    "policy": dict,
}
AUTOSCALE_POLICY = {
    "window_us": NUM,
    "eval_interval_us": NUM,
    "headroom": NUM,
    "min_devices": int,
    "boot_delay_us": NUM,
    "scale_down_ticks": int,
    "scale_down_cooldown_us": NUM,
}
AUTOSCALE_ROW = {
    "config": str,
    "arrivals": int,
    "devices": int,
    "wall_s": NUM,
    "makespan_us": NUM,
    "device_seconds": NUM,
    "completed": int,
    "expired": int,
    "boots": int,
    "retires": int,
    "fingerprint": str,
    "scale_fingerprint": str,
}
AUTOSCALE_SAVINGS = {
    "static_device_seconds": NUM,
    "autoscaled_device_seconds": NUM,
    "saving_fraction": NUM,
    "floor": NUM,
}
AUTOSCALE_P99 = {
    "tenants_gated": int,
    "tenants_ungated": int,
    "min_samples": int,
    "worst_ratio": NUM,
    "worst_tenant": str,
    "ceiling": NUM,
}

LLM_CONFIG = {
    "devices": int,
    "max_running": int,
    "tenants": int,
    "sequences_per_tenant": int,
    "seed": int,
    "mean_interarrival_us": NUM,
    "n_layers": int,
    "d_model": int,
    "kv_dtype_bytes": int,
    "block_tokens": int,
    "kv_bytes_per_token": int,
    "pages_per_block": int,
}
LLM_ROW = {
    "config": str,
    "mode": str,
    "sequences": int,
    "devices": int,
    "max_running": int,
    "wall_s": NUM,
    "makespan_us": NUM,
    "tokens": int,
    "tokens_per_s": NUM,
    "finished": int,
    "expired": int,
    "preempted": int,
    "reprefills": int,
    "ttft_p50_us": NUM,
    "ttft_p99_us": NUM,
    "itl_p50_us": NUM,
    "itl_p99_us": NUM,
    "token_fingerprint": str,
    "slo_fingerprint": str,
}
LLM_SPEEDUP = {
    "continuous_tokens_per_s": NUM,
    "static_tokens_per_s": NUM,
    "ratio": NUM,
}
LLM_RECOVERY = {
    "crashes": list,
    "preempted": int,
    "reprefills": int,
    "scrub_violations": int,
    "kv_leaks": int,
    "sequences_lost": int,
}

CLUSTER_CONFIG = {
    "gpus_per_node": int,
    "max_batch": int,
    "max_delay_us": NUM,
    "mean_rate_rps": NUM,
    "requests": int,
    "tenants": int,
    "seed": int,
    "steal_threshold": int,
    "service_model": str,
}
CLUSTER_ROW = {
    "nodes": int,
    "devices": int,
    "wall_s": NUM,
    "makespan_us": NUM,
    "completed": int,
    "deadline_met": int,
    "expired": int,
    "throughput_rps": NUM,
    "steals": int,
    "migrations": int,
    "fingerprint": str,
}
CLUSTER_SCALING = {
    "low_nodes": int,
    "high_nodes": int,
    "low_rps": NUM,
    "high_rps": NUM,
    "ratio": NUM,
    "floor": NUM,
}
CLUSTER_FAILOVER = {
    "nodes": int,
    "killed_node": str,
    "kill_t_us": NUM,
    "migrations": int,
    "migrated_requests": int,
    "orphaned": int,
    "scrub_pages_audited": int,
    "scrub_violations": int,
    "restore_mismatches": int,
    "lost": int,
    "duplicated": int,
    "completed": int,
    "expired": int,
    "fingerprint": str,
}
CLUSTER_WORKFLOW = {
    "name": str,
    "stages": int,
    "nodes": list,
    "nodes_spanned": int,
    "cross_node_transfers": int,
    "transfer_us": NUM,
    "makespan_us": NUM,
    "trace_events": int,
    "trace_problems": list,
    "causal_cross_node_links": int,
}

OBS_CONFIG = {
    "nodes": int,
    "gpus_per_node": int,
    "max_batch": int,
    "max_delay_us": NUM,
    "mean_rate_rps": NUM,
    "deadline_us": NUM,
    "scrape_interval_us": NUM,
    "requests": int,
    "tenants": int,
    "seed": int,
    "service_model": str,
}
OBS_OVERHEAD = {
    "off_wall_s": NUM,
    "instrumented_wall_s": NUM,
    "pipeline_wall_s": NUM,
    "repeats": int,
    "ratio": NUM,
    "ceiling": NUM,
    "instrumentation_ratio": NUM,
    "makespan_us": NUM,
    "fingerprint": str,
}
OBS_NODE_KILL = {
    "killed_node": str,
    "kill_t_us": NUM,
    "alert_t_us": NUM,
    "detection_us": NUM,
    "scrape_interval_us": NUM,
    "severity": str,
    "recovery_trace_events": int,
    "trace_problems": list,
    "dumped_traces": int,
    "alerts_total": int,
}
OBS_NOISY = {
    "trace_us": NUM,
    "ramp_start_us": NUM,
    "alert_t_us": NUM,
    "detection_us": NUM,
    "slow_window_us": NUM,
    "value": NUM,
    "threshold": NUM,
    "victim_false_pages": int,
}
OBS_REPLAY = {
    "scrapes": int,
    "series": int,
    "alerts": int,
    "fingerprint": str,
}
OBS_SAMPLER = {
    "considered": int,
    "retained": int,
    "retained_bytes": int,
    "byte_budget": int,
    "budget_rejected": int,
    "discarded_traces": int,
    "discarded_spans": int,
}

SCHEMAS = {
    "cronus.bench_scale/v1": Schema(
        (
            Block("config", SCALE_CONFIG),
            Block("rows", SCALE_ROW, each=True, hex=("fingerprint",),
                  positive=("arrivals", "wall_s", "req_per_s"),
                  choices={"engine": ENGINES}),
            Block("equivalence", {"arrivals": int}, each=True,
                  true=("fingerprints_equal",)),
            Block("speedup", SCALE_SPEEDUP, positive=("ratio",)),
        ),
        _scale_relations,
        lambda doc: (
            f"{len(doc['rows'])} rows to "
            f"{max(r['arrivals'] for r in doc['rows'] if r['engine'] == 'heap'):,} "
            f"arrivals, {len(doc['equivalence'])} equivalence points, "
            f"{doc['speedup']['ratio']}x at {doc['speedup']['arrivals']:,}"
        ),
    ),
    "cronus.bench_autoscale/v1": Schema(
        (
            Block("config", AUTOSCALE_CONFIG),
            Block("config.policy", AUTOSCALE_POLICY),
            Block("rows", AUTOSCALE_ROW, each=True,
                  hex=("fingerprint", "scale_fingerprint"),
                  positive=("arrivals", "device_seconds", "makespan_us")),
            Block("savings", AUTOSCALE_SAVINGS),
            Block("p99", AUTOSCALE_P99, at_least={"tenants_gated": 1}),
            Block("replay", {},
                  true=("slo_fingerprints_equal", "scale_fingerprints_equal")),
        ),
        _autoscale_relations,
        lambda doc: (
            f"{len(doc['rows'])} rows, "
            f"{doc['savings']['saving_fraction']:.1%} device-seconds saved, "
            f"worst gated p99 ratio {doc['p99']['worst_ratio']}x, "
            f"replays byte-identical"
        ),
    ),
    "cronus.bench_llm/v1": Schema(
        (
            Block("config", LLM_CONFIG),
            Block("rows", LLM_ROW, each=True,
                  hex=("token_fingerprint", "slo_fingerprint"),
                  positive=("sequences", "tokens", "tokens_per_s", "makespan_us"),
                  choices={"config": LLM_ROW_CONFIGS}),
            Block("speedup", LLM_SPEEDUP),
            Block("replay", {}, true=("fingerprints_equal",)),
            Block("recovery", LLM_RECOVERY, positive=("crashes",),
                  zero=("scrub_violations", "kv_leaks", "sequences_lost"),
                  true=("exactly_once_reprefill",)),
        ),
        _llm_relations,
        lambda doc: (
            f"{len(doc['rows'])} rows, continuous "
            f"{doc['speedup']['continuous_tokens_per_s']:,.0f} tok/s = "
            f"{doc['speedup']['ratio']}x static, "
            f"{len(doc['recovery']['crashes'])} crashes with exactly-once "
            f"re-prefill, replay byte-identical"
        ),
    ),
    "cronus.bench_cluster/v1": Schema(
        (
            Block("config", CLUSTER_CONFIG),
            Block("rows", CLUSTER_ROW, each=True, hex=("fingerprint",),
                  positive=("nodes", "wall_s", "makespan_us", "throughput_rps")),
            Block("scaling", CLUSTER_SCALING),
            Block("failover", CLUSTER_FAILOVER, hex=("fingerprint",),
                  positive=("migrations", "migrated_requests", "scrub_pages_audited"),
                  zero=("lost", "duplicated", "orphaned", "scrub_violations",
                        "restore_mismatches"),
                  true=("exactly_once",)),
            Block("replay", {"fingerprint": str}, hex=("fingerprint",),
                  true=("fingerprints_equal",)),
            Block("workflow", CLUSTER_WORKFLOW, zero=("trace_problems",),
                  at_least={"nodes_spanned": 2, "cross_node_transfers": 1,
                            "causal_cross_node_links": 1},
                  true=("schema_ok",)),
        ),
        _cluster_relations,
        lambda doc: (
            f"{len(doc['rows'])} rows, {doc['scaling']['low_nodes']}->"
            f"{doc['scaling']['high_nodes']} nodes = {doc['scaling']['ratio']}x, "
            f"failover lost {doc['failover']['lost']} of "
            f"{doc['failover']['migrated_requests']} migrated, workflow spans "
            f"{doc['workflow']['nodes_spanned']} nodes, replay byte-identical"
        ),
    ),
    "cronus.bench_obs/v1": Schema(
        (
            Block("config", OBS_CONFIG),
            # Recording is inert: all three variants render the same run.
            Block("overhead", OBS_OVERHEAD, hex=("fingerprint",),
                  positive=("off_wall_s", "instrumented_wall_s", "pipeline_wall_s",
                            "ratio", "instrumentation_ratio", "makespan_us"),
                  true=("report_fingerprints_equal", "makespans_equal")),
            Block("node_kill", OBS_NODE_KILL, zero=("trace_problems",),
                  at_least={"detection_us": 0, "recovery_trace_events": 1,
                            "dumped_traces": 1, "alerts_total": 1},
                  true=("within_one_interval", "schema_ok")),
            Block("noisy", OBS_NOISY, zero=("victim_false_pages",),
                  at_least={"detection_us": 0}, true=("within_slow_window",)),
            Block("replay", OBS_REPLAY, hex=("fingerprint",),
                  at_least={"scrapes": 1, "series": 1, "alerts": 1},
                  true=("store_fingerprints_equal", "alert_fingerprints_equal")),
            Block("sampler", OBS_SAMPLER, positive=("retained",),
                  at_least={"considered": 1}),
        ),
        _obs_relations,
        lambda doc: (
            f"pipeline overhead {doc['overhead']['ratio']}x (ceiling "
            f"{doc['overhead']['ceiling']}x), node-death page in "
            f"{doc['node_kill']['detection_us'] / 1e3:.1f}ms with "
            f"{doc['node_kill']['recovery_trace_events']} recovery events, "
            f"{doc['sampler']['retained']}/{doc['sampler']['considered']} "
            f"traces retained, replay byte-identical"
        ),
    ),
}


def check(doc) -> list:
    """All contract violations in ``doc`` (empty list = it honours its
    contract), dispatched on its ``schema`` tag."""
    if not isinstance(doc, dict):
        return [f"document root must be an object, got {type(doc).__name__}"]
    tag = doc.get("schema")
    schema = SCHEMAS.get(tag) if isinstance(tag, str) else None
    if schema is None:
        return [f"unknown schema tag {tag!r}; known tags: " + ", ".join(SCHEMAS)]
    failures = []
    for block in (ROOT,) + schema.blocks:
        _walk(doc, block, failures)
    if not failures:
        failures.extend(schema.relations(doc))
    return failures


def gate(path) -> int:
    """Check the document at ``path``: print every failure, or the success
    summary, and return the exit status."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    failures = check(doc)
    for failure in failures:
        print(f"FAIL: {path}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"bench schema ok: {path}: {SCHEMAS[doc['schema']].summary(doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(gate(sys.argv[1] if len(sys.argv) > 1 else "BENCH_scale.json"))
