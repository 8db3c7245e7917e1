"""The raw-speed trajectory: heap engine vs the legacy scan engine.

Sweeps the seeded million-user trace (:mod:`repro.serve.loadgen`) through
both serving engines over a 14-GPU testbed and records requests-simulated
-per-wall-clock-second at each scale point into ``BENCH_scale.json`` at
the repo root:

* both engines run every point up to ``LEGACY_MAX`` arrivals, and their
  SLO-table fingerprints must be **byte-identical** — the heap refactor
  is host-speed only, simulated time must not move;
* beyond ``LEGACY_MAX`` only the heap engine runs (the legacy scan loop
  would take minutes per point), so its rows simply stop;
* the acceptance ratio is taken at the largest point both engines ran
  (the 100k-arrival point in the full sweep) and must be >= 10x; the
  10k smoke slice must still be a decisive (> 3x) win.  Both bars, like
  every other rule of the document, are held by the bench contract
  (``scripts/check_bench_schema.py``) before the bench exits.

Both engines use the synthetic service-time model — a pure function of
each request — so the sweep measures the *scheduling engine*, not a
million simulated enclave matmuls; fingerprints stay comparable because
the model is shared.

Run standalone (writes ``BENCH_scale.json``)::

    PYTHONPATH=src python benchmarks/bench_scale.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke   # 10k ceiling (CI)

or as the deselected ``scale`` pytest marker::

    pytest -m scale benchmarks/bench_scale.py
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

from repro.faults import make_figure9_system
from repro.serve import ServingSystem
from repro.serve.legacy import LegacyServingSystem
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import check, gate  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scale.json"

SCHEMA = "cronus.bench_scale/v1"

# The scale testbed: enough partitions and deep enough batches that the
# legacy engine's O(devices x queue-depth) per-event scans are the cost
# being measured.  14 GPUs + the NPU stays under the SPM's 16-partition
# architectural cap.
DEVICES = 14
MAX_BATCH = 128
MAX_DELAY_US = 10_000.0
MEAN_RATE_RPS = 200_000.0

FULL_SWEEP = (1_000, 10_000, 100_000, 1_000_000)
SMOKE_SWEEP = (1_000, 10_000)
LEGACY_MAX = 100_000  # the scan engine is not run past this point


def scale_profile(arrivals):
    """The trace profile of one sweep point (pure function of the scale)."""
    return LoadProfile(requests=arrivals, mean_rate_rps=MEAN_RATE_RPS)


def build_engine(engine, specs):
    """A fresh serving system of the requested engine over the testbed."""
    system = make_figure9_system(num_gpus=DEVICES)
    cls = LegacyServingSystem if engine == "legacy" else ServingSystem
    serving = cls(
        system,
        max_batch=MAX_BATCH,
        max_delay_us=MAX_DELAY_US,
        service_model=synthetic_service_model(),
    )
    for spec in specs:
        serving.add_tenant(spec)
    return serving


def run_point(engine, arrivals, specs, requests):
    """One (engine, scale) measurement row."""
    serving = build_engine(engine, specs)
    t0 = time.perf_counter()
    report = serving.run(requests)
    wall_s = time.perf_counter() - t0
    audit = report.audit_exactly_once()
    if audit:
        raise SystemExit(
            f"{engine} engine violated exactly-once at {arrivals} arrivals: {audit[:3]}"
        )
    return {
        "engine": engine,
        "arrivals": arrivals,
        "tenants": len(specs),
        "devices": DEVICES,
        "wall_s": round(wall_s, 4),
        "req_per_s": round(arrivals / wall_s, 1),
        "completed": len(report.completed),
        "expired": len(report.expired),
        "fingerprint": report.fingerprint,
    }


def run_sweep(sweep, *, legacy_max=LEGACY_MAX, log=print):
    """The full measurement document (everything but the output path)."""
    rows = []
    equivalence = []
    for arrivals in sweep:
        profile = scale_profile(arrivals)
        specs, requests = generate_trace(profile)
        heap_row = run_point("heap", arrivals, specs, requests)
        rows.append(heap_row)
        log(
            f"  heap   {arrivals:>9,} arrivals: {heap_row['wall_s']:8.2f}s "
            f"({heap_row['req_per_s']:>9,.0f} req/s)"
        )
        if arrivals <= legacy_max:
            legacy_row = run_point("legacy", arrivals, specs, requests)
            rows.append(legacy_row)
            log(
                f"  legacy {arrivals:>9,} arrivals: {legacy_row['wall_s']:8.2f}s "
                f"({legacy_row['req_per_s']:>9,.0f} req/s)"
            )
            equal = heap_row["fingerprint"] == legacy_row["fingerprint"]
            equivalence.append({"arrivals": arrivals, "fingerprints_equal": equal})
    ratio_point = max(a for a in sweep if a <= legacy_max)
    by_key = {(r["engine"], r["arrivals"]): r for r in rows}
    heap_rps = by_key[("heap", ratio_point)]["req_per_s"]
    legacy_rps = by_key[("legacy", ratio_point)]["req_per_s"]
    return {
        "schema": SCHEMA,
        "config": {
            "devices": DEVICES,
            "max_batch": MAX_BATCH,
            "max_delay_us": MAX_DELAY_US,
            "mean_rate_rps": MEAN_RATE_RPS,
            "tenants": scale_profile(sweep[0]).tenants,
            "seed": scale_profile(sweep[0]).seed,
            "service_model": repr(synthetic_service_model()),
        },
        "rows": rows,
        "equivalence": equivalence,
        "speedup": {
            "arrivals": ratio_point,
            "heap_req_per_s": heap_rps,
            "legacy_req_per_s": legacy_rps,
            "ratio": round(heap_rps / legacy_rps, 2),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized sweep (10k-arrival ceiling) instead of the full 1M run",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    print(f"bench_scale: {'smoke' if args.smoke else 'full'} sweep {list(sweep)}")
    doc = run_sweep(sweep)
    doc["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if gate(args.output):
        raise SystemExit(1)
    return doc


if pytest is not None:

    @pytest.mark.scale
    def test_scale_smoke():
        """The CI smoke slice honours the bench contract: the engines agree
        byte-for-byte and the heap engine is decisively faster."""
        doc = run_sweep(SMOKE_SWEEP, log=lambda *_: None)
        doc["mode"] = "smoke"
        assert check(json.loads(json.dumps(doc))) == []


if __name__ == "__main__":
    main()
