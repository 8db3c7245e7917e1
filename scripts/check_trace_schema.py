#!/usr/bin/env python
"""CI gate: export a Perfetto trace from the figure-9 failover and validate it.

Runs the seeded two-GPU crash/recover experiment with observability on,
exports the Chrome trace-event JSON, and checks it against the schema
(:func:`repro.obs.validate_chrome_trace`): required keys on every event,
span-identity args on every complete event, unique sequence numbers, and
no dangling parents.  Also asserts the two determinism acceptance gates:

* the recovery-phase breakdown sums to the experiment's reported failover
  latency (detect + recover + resubmit), and
* two same-seed runs produce identical metrics fingerprints and identical
  exported JSON.

Finally, annotates the trace with a synthetic alert
(:func:`repro.obs.annotate_chrome_trace` — the "recovery trace attached
to alert" dump format) and re-validates: the instant event must pass the
schema and round-trip through :func:`repro.obs.alert_annotations`.

Usage: ``PYTHONPATH=src python scripts/check_trace_schema.py [out.json]``
Exit status 0 = all gates pass.
"""

from __future__ import annotations

import json
import sys


def _run(out_path):
    from repro.faults.campaign import make_figure9_system
    from repro.faults.failover import run_failover_experiment
    from repro.obs import (
        chrome_trace,
        collect_system_metrics,
        recovery_phases,
        write_chrome_trace,
    )

    system = make_figure9_system(obs=True)
    result = run_failover_experiment(
        system=system,
        duration_us=600_000.0,
        crash_at_us=200_000.0,
        bucket_us=50_000.0,
    )
    obs = system.platform.obs
    write_chrome_trace(obs, out_path)
    fingerprint = collect_system_metrics(system).fingerprint()
    return chrome_trace(obs.spans()), recovery_phases(obs), result, fingerprint


def main(argv) -> int:
    import repro.workloads  # noqa: F401  (registers kernels)
    from repro.obs import validate_chrome_trace

    out_path = argv[1] if len(argv) > 1 else "trace.json"
    data, phases, result, fingerprint = _run(out_path)

    failures = []
    problems = validate_chrome_trace(data)
    for problem in problems:
        failures.append(f"schema: {problem}")

    reported = result.detection_us + result.recovery_us + result.resubmit_us
    total = sum(phases.values())
    if abs(total - reported) > 1e-6:
        failures.append(
            f"recovery breakdown {total} us != reported failover latency "
            f"{reported} us"
        )

    # Alert annotation: the dump format the alert engine writes must
    # survive the same schema gate and round-trip its instant events.
    from repro.obs import Alert, alert_annotations, annotate_chrome_trace

    alert = Alert(
        alert_id=1, t_us=200_000.0, rule="node-death", severity="page",
        labels=(("node", "gpu0"),), value=1.0, threshold=1.0,
        fast_window_us=0.0, slow_window_us=0.0,
    )
    annotated = annotate_chrome_trace(data, [alert])
    for problem in validate_chrome_trace(annotated):
        failures.append(f"annotated schema: {problem}")
    annotations = alert_annotations(annotated)
    if len(annotations) != 1:
        failures.append(
            f"expected 1 alert annotation after annotate, found {len(annotations)}"
        )
    elif annotations[0]["args"].get("rule") != "node-death":
        failures.append("alert annotation lost its rule name")
    if alert_annotations(data):
        failures.append("annotate_chrome_trace mutated its input trace")

    # Same-seed determinism: a second run must be byte-identical.
    data2, _, _, fingerprint2 = _run(out_path + ".2")
    if fingerprint != fingerprint2:
        failures.append(
            f"metrics fingerprint differs across same-seed runs: "
            f"{fingerprint} != {fingerprint2}"
        )
    if json.dumps(data, sort_keys=True) != json.dumps(data2, sort_keys=True):
        failures.append("exported trace JSON differs across same-seed runs")

    events = sum(1 for e in data["traceEvents"] if e.get("ph") == "X")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"trace schema ok: {events} span events, breakdown sums to "
        f"{reported:.3f} us, alert annotation round-trips, "
        f"fingerprint {fingerprint[:16]}... stable"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
