"""Observability-enabled figure-9 run: the exported trace and breakdown.

Regenerates the recovery-phase breakdown table (detect → trap → scrub →
reload → resubmit) from the causal spans of an observability-enabled
crash/recover experiment, writes the Perfetto-loadable Chrome trace JSON
next to it, and asserts the acceptance gates: the exported trace passes
the schema validator, the breakdown sums to the experiment's reported
failover latency, and a same-seed replay produces the identical metrics
fingerprint.

Deselected from tier-1; run with::

    pytest -m obs benchmarks/bench_obs.py
"""

import os

import pytest

from benchmarks.conftest import run_once
from repro.faults.campaign import make_figure9_system
from repro.faults.failover import run_failover_experiment
from repro.metrics import recovery_table
from repro.obs import (
    chrome_trace,
    collect_system_metrics,
    recovery_phases,
    validate_chrome_trace,
    write_chrome_trace,
)


def run_scenario():
    system = make_figure9_system(obs=True)
    result = run_failover_experiment(
        system=system,
        duration_us=1_500_000.0,
        crash_at_us=500_000.0,
        bucket_us=100_000.0,
    )
    return system, result


@pytest.mark.obs
def test_figure9_trace_export_and_breakdown(benchmark, record_table, results_dir):
    def scenario():
        system, result = run_scenario()
        obs = system.platform.obs
        return (
            chrome_trace(obs.spans()),
            recovery_phases(obs),
            result,
            collect_system_metrics(system).fingerprint(),
            len(obs),
            len(obs.flight_dumps),
        )

    data, phases, result, fingerprint, spans, dumps = run_once(benchmark, scenario)

    assert validate_chrome_trace(data) == []
    reported = result.detection_us + result.recovery_us + result.resubmit_us
    assert sum(phases.values()) == pytest.approx(reported, abs=1e-6)
    assert spans > 0 and dumps == 1

    # Same-seed replay: identical fingerprint (the determinism gate).
    system2, _ = run_scenario()
    assert collect_system_metrics(system2).fingerprint() == fingerprint
    write_chrome_trace(
        system2.platform.obs, os.path.join(results_dir, "fig9_trace.json")
    )

    table = recovery_table(phases)
    record_table(
        "fig9_recovery_breakdown",
        table
        + f"\n\nreported failover latency: {reported:.3f} us"
        + f"\nmetrics fingerprint: {fingerprint}"
        + f"\nspans: {spans}  flight dumps: {dumps}",
    )
    benchmark.extra_info["failover_us"] = reported
    benchmark.extra_info["fingerprint"] = fingerprint
