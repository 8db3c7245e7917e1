"""Device-seconds saved by the SLO-driven autoscaler at equal p99.

Runs the seeded diurnal+burst trace (:mod:`repro.serve.loadgen`) over the
14-GPU testbed four times and records the comparison into
``BENCH_autoscale.json`` at the repo root:

* **static** — the whole fleet powered for the whole run; the baseline
  device-seconds bill and the per-tenant p99 reference row;
* **autoscaled** — the :class:`~repro.serve.autoscaler.Autoscaler` boots
  and retires partitions under the same trace; records the decision
  schedule and the scale fingerprint;
* **replay x2** — the recorded decision schedule fed back through
  ``run(..., scale_events=...)`` twice; both replays must render the
  autoscaled run's SLO table and fleet trajectory **byte-identically**.

Acceptance (smoke and full): the autoscaler cuts device-seconds by at
least ``SAVING_FLOOR`` versus the static fleet while every gated tenant's
p99 stays within ``P99_CEILING`` of the static row, and the two replays
are byte-identical.  The document records both bounds and the bench
contract (``scripts/check_bench_schema.py``) holds it to them before the
bench exits.  Tenants below ``MIN_P99_SAMPLES`` completions are reported
but not gated — a "p99" over a handful of samples is just the max and
gates on single-request placement luck rather than policy.

Run standalone (writes ``BENCH_autoscale.json``)::

    PYTHONPATH=src python benchmarks/bench_autoscale.py           # full
    PYTHONPATH=src python benchmarks/bench_autoscale.py --smoke   # CI

or as the deselected ``scale`` pytest marker::

    pytest -m scale benchmarks/bench_autoscale.py
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

try:
    import pytest
except ImportError:  # standalone invocation does not need pytest
    pytest = None

from repro.faults import make_figure9_system
from repro.serve import AutoscalerPolicy, ServingSystem
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))
from check_bench_schema import check, gate  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_autoscale.json"

SCHEMA = "cronus.bench_autoscale/v1"

# The same 14-GPU testbed as bench_scale (16 partitions with the NPU and
# CPU stays under the SPM's architectural cap) — the static fleet the
# autoscaler is trying to beat.
DEVICES = 14
MAX_BATCH = 32
MAX_DELAY_US = 5_000.0

# One compressed "day" across the trace: 100k arrivals at 50k rps cover
# ~2 simulated seconds, so the autoscaler sees a full trough-and-peak
# cycle plus the seeded burst episodes.
FULL_PROFILE = LoadProfile(
    seed=2022,
    requests=100_000,
    mean_rate_rps=50_000.0,
    diurnal_period_us=2e6,
    burst_rate_multiplier=2.0,
)
SMOKE_PROFILE = dataclasses.replace(
    FULL_PROFILE, requests=10_000, diurnal_period_us=400_000.0
)

# Headroom 3x over windowed demand keeps burst-window utilization under
# ~0.5 (bursts are shorter than the boot delay, so only the *standing*
# fleet absorbs them); the diurnal cycle then drives the fleet between
# the floor and ~7 devices with real boots and retires.
POLICY = AutoscalerPolicy(
    window_us=100_000.0,
    eval_interval_us=25_000.0,
    headroom=3.0,
    default_service_us=25.0,
    p99_slo_us=15_000.0,
    min_devices=2,
    max_devices=DEVICES,
    boot_delay_us=25_000.0,
    scale_down_ticks=4,
    scale_down_cooldown_us=100_000.0,
)

# The autoscaled run starts warm at the mean-rate fleet (the operator
# knows the average offered load); the trough retires it down, the peak
# boots past it.
WARM_START = tuple(f"gpu{i}" for i in range(5))

SAVING_FLOOR = 0.25   # autoscaler must cut >= 25% of device-seconds
P99_CEILING = 1.10    # per-tenant p99 must stay within 1.10x of static
MIN_P99_SAMPLES = 20  # tenants with fewer completions are not gated
REPLAYS = 2


def build_engine(specs, **fleet_kwargs):
    """A fresh heap-engine serving system over the 14-GPU testbed."""
    serving = ServingSystem(
        make_figure9_system(num_gpus=DEVICES),
        max_batch=MAX_BATCH,
        max_delay_us=MAX_DELAY_US,
        service_model=synthetic_service_model(),
        **fleet_kwargs,
    )
    for spec in specs:
        serving.add_tenant(spec)
    return serving


def run_point(config, specs, requests, **run_and_fleet_kwargs):
    """One measurement row plus the raw handles the analysis needs."""
    scale_events = run_and_fleet_kwargs.pop("scale_events", ())
    serving = build_engine(specs, **run_and_fleet_kwargs)
    t0 = time.perf_counter()
    report = serving.run(requests, scale_events=scale_events)
    wall_s = time.perf_counter() - t0
    audit = report.audit_exactly_once()
    if audit:
        raise SystemExit(f"{config} run violated exactly-once: {audit[:3]}")
    scaler = serving.autoscaler
    row = {
        "config": config,
        "arrivals": len(requests),
        "devices": DEVICES,
        "wall_s": round(wall_s, 4),
        "makespan_us": report.makespan_us,
        "device_seconds": round(report.device_seconds, 6),
        "completed": len(report.completed),
        "expired": len(report.expired),
        "boots": scaler.stats["boots"] if scaler is not None else 0,
        "retires": scaler.stats["retires"] if scaler is not None else 0,
        "fingerprint": report.fingerprint,
        "scale_fingerprint": report.scale_fingerprint,
    }
    percentiles = serving.slo.percentiles(99.0)
    samples = {
        tenant: len(account.latencies)
        for tenant, account in serving.slo.accounts().items()
    }
    return row, report, percentiles, samples


def compare_p99(static_p99, auto_p99, static_samples):
    """Worst per-tenant p99 ratio, gated and ungated populations split."""
    gated = []
    ungated = []
    for tenant, base in sorted(static_p99.items()):
        if tenant not in auto_p99 or base <= 0:
            continue
        ratio = auto_p99[tenant] / base
        bucket = (
            gated if static_samples.get(tenant, 0) >= MIN_P99_SAMPLES else ungated
        )
        bucket.append((ratio, tenant))
    worst = max(gated) if gated else (0.0, "")
    worst_any = max(gated + ungated) if gated or ungated else (0.0, "")
    return {
        "tenants_gated": len(gated),
        "tenants_ungated": len(ungated),
        "min_samples": MIN_P99_SAMPLES,
        "worst_ratio": round(worst[0], 4),
        "worst_tenant": worst[1],
        "worst_ratio_any": round(worst_any[0], 4),
        "worst_tenant_any": worst_any[1],
        "ceiling": P99_CEILING,
    }


def run_sweep(profile, *, log=print):
    """The full measurement document (everything but mode/output path)."""
    specs, requests = generate_trace(profile)
    arrivals = len(requests)

    static_row, static_report, static_p99, static_samples = run_point(
        "static", specs, requests
    )
    log(
        f"  static     {arrivals:>8,} arrivals: "
        f"{static_row['device_seconds']:8.3f} device-s in {static_row['wall_s']:.2f}s"
    )

    auto_row, auto_report, auto_p99, _ = run_point(
        "autoscaled", specs, requests, autoscaler=POLICY, initial_live=WARM_START
    )
    log(
        f"  autoscaled {arrivals:>8,} arrivals: "
        f"{auto_row['device_seconds']:8.3f} device-s in {auto_row['wall_s']:.2f}s "
        f"({auto_row['boots']} boots, {auto_row['retires']} retires)"
    )

    schedule = auto_report.scale_schedule()
    replay_rows = []
    for i in range(REPLAYS):
        replay_row, _, _, _ = run_point(
            f"replay-{i + 1}",
            specs,
            requests,
            initial_live=auto_report.initial_live,
            boot_delay_us=POLICY.boot_delay_us,
            scale_events=schedule,
        )
        replay_rows.append(replay_row)
        log(
            f"  {replay_row['config']:<10} {arrivals:>8,} arrivals: "
            f"fingerprint {replay_row['fingerprint'][:12]}…"
        )

    slo_equal = all(r["fingerprint"] == auto_row["fingerprint"] for r in replay_rows)
    scale_equal = all(
        r["scale_fingerprint"] == auto_row["scale_fingerprint"] for r in replay_rows
    )

    saving = 1.0 - auto_row["device_seconds"] / static_row["device_seconds"]
    p99 = compare_p99(static_p99, auto_p99, static_samples)
    return {
        "schema": SCHEMA,
        "config": {
            "devices": DEVICES,
            "max_batch": MAX_BATCH,
            "max_delay_us": MAX_DELAY_US,
            "arrivals": arrivals,
            "tenants": profile.tenants,
            "seed": profile.seed,
            "mean_rate_rps": profile.mean_rate_rps,
            "diurnal_period_us": profile.diurnal_period_us,
            "burst_rate_multiplier": profile.burst_rate_multiplier,
            "service_model": repr(synthetic_service_model()),
            "policy": {
                "window_us": POLICY.window_us,
                "eval_interval_us": POLICY.eval_interval_us,
                "headroom": POLICY.headroom,
                "p99_slo_us": POLICY.p99_slo_us,
                "min_devices": POLICY.min_devices,
                "max_devices": POLICY.max_devices,
                "boot_delay_us": POLICY.boot_delay_us,
                "scale_down_ticks": POLICY.scale_down_ticks,
                "scale_down_cooldown_us": POLICY.scale_down_cooldown_us,
            },
        },
        "rows": [static_row, auto_row] + replay_rows,
        "savings": {
            "static_device_seconds": static_row["device_seconds"],
            "autoscaled_device_seconds": auto_row["device_seconds"],
            "saving_fraction": round(saving, 4),
            "floor": SAVING_FLOOR,
        },
        "p99": p99,
        "replay": {
            "replays": REPLAYS,
            "schedule_events": len(schedule),
            "slo_fingerprints_equal": slo_equal,
            "scale_fingerprints_equal": scale_equal,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized trace (10k arrivals) instead of the full 100k run",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    profile = SMOKE_PROFILE if args.smoke else FULL_PROFILE
    print(
        f"bench_autoscale: {'smoke' if args.smoke else 'full'} trace "
        f"({profile.requests:,} arrivals, {DEVICES} GPUs)"
    )
    doc = run_sweep(profile)
    doc["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if gate(args.output):
        raise SystemExit(1)
    return doc


if pytest is not None:

    @pytest.mark.scale
    def test_autoscale_smoke():
        """The CI smoke slice honours the bench contract: the autoscaler
        saves device-seconds at equal p99 and the replays are
        byte-identical."""
        doc = run_sweep(SMOKE_PROFILE, log=lambda *_: None)
        doc["mode"] = "smoke"
        assert check(json.loads(json.dumps(doc))) == []


if __name__ == "__main__":
    main()
