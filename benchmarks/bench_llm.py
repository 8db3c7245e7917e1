"""Continuous-batching LLM serving: throughput, token SLOs, crash recovery.

Runs the simulated autoregressive workload (:mod:`repro.workloads.llm`)
through the :class:`~repro.serve.llm.LLMEngine` and records the
comparison into ``BENCH_llm.json`` at the repo root:

* **continuous** — vLLM/Orca-style token-boundary admission: finished
  sequences are evicted mid-batch and waiting sequences join at any
  iteration boundary;
* **static** — the run-to-completion baseline on the *same trace*: a
  device admits a batch only when fully drained.  The speedup block
  records continuous vs static tokens/s;
* **replay** — the continuous run repeated from the same seed; its token
  and request SLO fingerprints must be **byte-identical**;
* **crash** — the continuous run with partition crashes injected
  mid-decode: victims' KV pages must be scrubbed (zero bytes survive
  recovery), no freshly allocated block may carry another sequence's KV
  (zero cross-sequence leakage), and every mid-decode victim must be
  re-prefilled **exactly once**.

Acceptance (smoke and full, held by the bench contract in
``scripts/check_bench_schema.py`` before the bench exits): continuous
beats static on tokens/s, the replay is byte-identical, and the crash row
shows zero scrub violations, zero KV leaks, re-prefills equal to
preemptions, and no lost sequences.

Run standalone (writes ``BENCH_llm.json``)::

    PYTHONPATH=src python benchmarks/bench_llm.py           # full
    PYTHONPATH=src python benchmarks/bench_llm.py --smoke   # CI

or as the deselected ``llm`` pytest marker::

    pytest -m llm benchmarks/bench_llm.py
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

from repro.serve import LLMEngine, MODE_CONTINUOUS, MODE_STATIC, TenantSpec
from repro.serve.llm import llm_arrivals
from repro.serve.slo import nearest_rank
from repro.systems import CronusSystem, TestbedConfig
from repro.workloads.llm import LLMConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import check, gate  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_llm.json"

SCHEMA = "cronus.bench_llm/v1"

DEVICES = 4
MAX_RUNNING = 8
MODEL = LLMConfig()  # 4 layers x 128 wide, fp16 KV, 16-token blocks

TENANTS = 2
SEED = 1009
MEAN_INTERARRIVAL_US = 60.0
PROMPT_TOKENS = (8, 48)
MAX_NEW_TOKENS = (8, 48)

FULL_SEQUENCES = 2_000   # per tenant
SMOKE_SEQUENCES = 120

#: Mid-decode crash schedule: two partitions die while their batches are
#: deep in decode, the second while the first is still recovering.
CRASH_EVENTS = ((3_000.0, "gpu0"), (60_000.0, "gpu1"))


def build_engine(mode):
    system = CronusSystem(TestbedConfig(num_gpus=DEVICES))
    return LLMEngine(
        system, config=MODEL, max_running=MAX_RUNNING, mode=mode
    )


def make_arrivals(engine, sequences):
    arrivals = []
    for i in range(TENANTS):
        tenant = engine.add_tenant(
            TenantSpec(
                f"llm-{i:02d}",
                rate_limit_rps=1e9,  # the batcher, not the bucket, queues
                burst=1 << 20,
                memory_quota_bytes=1 << 40,
                max_queue_depth=1 << 20,
                deadline_us=1e9,
            )
        )
        arrivals += llm_arrivals(
            tenant,
            engine.config,
            count=sequences,
            seed=SEED + i,
            mean_interarrival_us=MEAN_INTERARRIVAL_US,
            prompt_tokens=PROMPT_TOKENS,
            max_new_tokens=MAX_NEW_TOKENS,
        )
    return arrivals


def aggregate_percentile(accounts, attr, pct):
    values = sorted(v for a in accounts.values() for v in getattr(a, attr))
    return round(nearest_rank(values, pct), 1)


def run_point(config, mode, sequences, *, crash_events=()):
    engine = build_engine(mode)
    arrivals = make_arrivals(engine, sequences)
    t0 = time.perf_counter()
    report = engine.run(arrivals, crash_events=crash_events)
    wall_s = time.perf_counter() - t0
    audit = report.audit()
    if audit:
        raise SystemExit(f"{config} run violated its invariants: {audit[:3]}")
    accounts = engine.slo.accounts()
    row = {
        "config": config,
        "mode": mode,
        "sequences": len(arrivals),
        "devices": DEVICES,
        "max_running": MAX_RUNNING,
        "wall_s": round(wall_s, 4),
        "makespan_us": report.makespan_us,
        "tokens": report.total_tokens,
        "tokens_per_s": round(report.tokens_per_s, 3),
        "finished": report.sequences_finished,
        "expired": report.sequences_expired,
        "preempted": report.sequences_preempted,
        "reprefills": report.reprefills,
        "ttft_p50_us": aggregate_percentile(accounts, "ttft_us", 50),
        "ttft_p99_us": aggregate_percentile(accounts, "ttft_us", 99),
        "itl_p50_us": aggregate_percentile(accounts, "itl_us", 50),
        "itl_p99_us": aggregate_percentile(accounts, "itl_us", 99),
        "token_fingerprint": report.token_fingerprint,
        "slo_fingerprint": report.slo_fingerprint,
    }
    return row, report


def run_sweep(sequences, *, log=print):
    """The full measurement document (everything but mode/output path)."""

    def show(row):
        log(
            f"  {row['config']:<10} {row['sequences']:>6,} seqs: "
            f"{row['tokens']:>8,} tokens at {row['tokens_per_s']:>12,.0f} tok/s, "
            f"ttft p99 {row['ttft_p99_us']:>9,.1f}us, "
            f"itl p99 {row['itl_p99_us']:>8,.1f}us in {row['wall_s']:.2f}s"
        )

    continuous, _ = run_point("continuous", MODE_CONTINUOUS, sequences)
    show(continuous)
    static, _ = run_point("static", MODE_STATIC, sequences)
    show(static)
    replay, _ = run_point("replay", MODE_CONTINUOUS, sequences)
    show(replay)
    crash_row, crash_report = run_point(
        "crash", MODE_CONTINUOUS, sequences, crash_events=CRASH_EVENTS
    )
    show(crash_row)

    replay_equal = (
        replay["token_fingerprint"] == continuous["token_fingerprint"]
        and replay["slo_fingerprint"] == continuous["slo_fingerprint"]
    )

    return {
        "schema": SCHEMA,
        "config": {
            "devices": DEVICES,
            "max_running": MAX_RUNNING,
            "tenants": TENANTS,
            "sequences_per_tenant": sequences,
            "seed": SEED,
            "mean_interarrival_us": MEAN_INTERARRIVAL_US,
            "prompt_tokens": list(PROMPT_TOKENS),
            "max_new_tokens": list(MAX_NEW_TOKENS),
            "n_layers": MODEL.n_layers,
            "d_model": MODEL.d_model,
            "kv_dtype_bytes": MODEL.kv_dtype_bytes,
            "block_tokens": MODEL.block_tokens,
            "kv_bytes_per_token": MODEL.kv_bytes_per_token,
            "pages_per_block": MODEL.pages_per_block,
        },
        "rows": [continuous, static, replay, crash_row],
        "speedup": {
            "continuous_tokens_per_s": continuous["tokens_per_s"],
            "static_tokens_per_s": static["tokens_per_s"],
            "ratio": round(
                continuous["tokens_per_s"] / static["tokens_per_s"], 4
            ),
        },
        "replay": {"fingerprints_equal": replay_equal},
        "recovery": {
            "crashes": list(crash_report.crashes),
            "preempted": crash_report.sequences_preempted,
            "reprefills": crash_report.reprefills,
            "scrub_violations": crash_report.scrub_violations,
            "kv_leaks": crash_report.kv_leaks,
            "exactly_once_reprefill": (
                crash_report.reprefills == crash_report.sequences_preempted
            ),
            "sequences_lost": (
                len(crash_report.admitted)
                - crash_report.sequences_finished
                - crash_report.sequences_expired
            ),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized trace ({SMOKE_SEQUENCES} sequences/tenant) instead "
        f"of the full {FULL_SEQUENCES}",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    sequences = SMOKE_SEQUENCES if args.smoke else FULL_SEQUENCES
    print(
        f"bench_llm: {'smoke' if args.smoke else 'full'} trace "
        f"({TENANTS} x {sequences:,} sequences, {DEVICES} GPUs, "
        f"batch {MAX_RUNNING})"
    )
    doc = run_sweep(sequences)
    doc["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if gate(args.output):
        raise SystemExit(1)
    return doc


if pytest is not None:

    @pytest.mark.llm
    def test_llm_bench_smoke():
        """The CI smoke slice honours the bench contract: continuous beats
        static and crash recovery is leak-free and exactly-once."""
        doc = run_sweep(SMOKE_SEQUENCES, log=lambda *_: None)
        doc["mode"] = "smoke"
        assert check(json.loads(json.dumps(doc))) == []


if __name__ == "__main__":
    main()
