"""Command-line interface: ``python -m repro <command>``.

Quick entry points for the common flows without writing a script:

* ``attest``   — boot a system, produce and verify a platform report.
* ``attacks``  — run the full adversary battery.
* ``rodinia``  — figure 7: Rodinia across all four systems.
* ``train``    — figure 8: LeNet training across all four systems.
* ``failover`` — figure 9: two-task crash/recover timeline.
* ``tcb``      — table III: per-tenant TCB accounting.
* ``cluster``  — 2-node sharded serving demo with a node kill and
  checkpoint migration (section VII-C extension).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_attest(_args) -> int:
    from repro import CronusSystem
    from repro.secure.monitor import verify_attestation_report

    system = CronusSystem()
    report = system.attest_platform()
    verify_attestation_report(
        report,
        system.platform.attestation_service.public,
        {name: ca.public for name, ca in system.platform.vendors.items()},
        {
            d.name: d.vendor_cert
            for d in system.platform.devices()
            if d.vendor_cert is not None and d.device_type != "cpu"
        },
    )
    print("attestation verified")
    for name, digest in sorted(report.mos_hashes.items()):
        print(f"  {name}: {digest[:24]}...")
    return 0


def _cmd_attacks(_args) -> int:
    from repro.attacks import run_all_attacks

    outcomes = run_all_attacks()
    width = max(len(o.name) for o in outcomes)
    for o in outcomes:
        print(f"{o.name:<{width}}  {'BLOCKED' if o.blocked else 'BREACH':8s}  {o.detail}")
    failed = [o for o in outcomes if not o.blocked]
    print(f"\n{len(outcomes) - len(failed)}/{len(outcomes)} blocked")
    return 1 if failed else 0


def _cmd_rodinia(args) -> int:
    from repro.metrics import format_table, normalize
    from repro.systems import CronusSystem, HixTrustZone, MonolithicTrustZone, NativeLinux
    from repro.workloads.rodinia import RODINIA, all_kernels

    names = args.bench or sorted(RODINIA)
    rows = []
    for name in names:
        times = {}
        for cls in (NativeLinux, MonolithicTrustZone, HixTrustZone, CronusSystem):
            system = cls()
            rt = system.runtime(cuda_kernels=all_kernels(), owner="cli")
            start = system.clock.now
            RODINIA[name].run(rt)
            times[system.name] = system.clock.now - start
            system.release(rt)
        norm = normalize(times, "linux")
        rows.append([name] + [f"{norm[k]:.3f}" for k in
                              ("linux", "trustzone", "cronus", "hix-trustzone")])
    print(format_table(["bench", "linux", "trustzone", "cronus", "hix"], rows))
    return 0


def _cmd_train(_args) -> int:
    from repro.metrics import format_table, normalize
    from repro.systems import CronusSystem, HixTrustZone, MonolithicTrustZone, NativeLinux
    from repro.workloads.datasets import synthetic_mnist
    from repro.workloads.dnn import TRAINING_KERNELS, lenet, train

    data = synthetic_mnist(64)
    times = {}
    for cls in (NativeLinux, MonolithicTrustZone, HixTrustZone, CronusSystem):
        system = cls()
        rt = system.runtime(cuda_kernels=TRAINING_KERNELS, owner="cli")
        model = lenet()
        start = system.clock.now
        train(rt, model, data, epochs=1, batch_size=16)
        times[system.name] = system.clock.now - start
        model.free(rt)
        system.release(rt)
    norm = normalize(times, "linux")
    rows = [[k, f"{times[k] / 1000:.2f} ms", f"{norm[k]:.3f}x"] for k in times]
    print(format_table(["system", "time", "vs native"], rows))
    return 0


def _cmd_failover(_args) -> int:
    from repro.faults import run_failover_experiment

    result = run_failover_experiment()
    print(f"recovery: {result.recovery_us / 1000:.1f} ms; "
          f"resubmit: {result.resubmit_us / 1000:.2f} ms; reboot baseline: 120 s")
    print("task-a:", result.throughput["task-a"])
    print("task-b:", result.throughput["task-b"])
    return 0


def _cmd_tcb(_args) -> int:
    from repro.metrics import format_table, tcb_report

    report = tcb_report()
    print(format_table(["component", "LoC"], sorted(report.items())))
    return 0


def _cmd_trace(_args) -> int:
    """Run a small traced scenario and dump the event log."""
    import numpy as np

    from repro import CronusSystem

    system = CronusSystem(trace=True)
    rt = system.runtime(cuda_kernels=("vecadd",), owner="traced")
    a = rt.cudaMalloc((16,))
    rt.cudaMemcpyH2D(a, np.ones(16, np.float32))
    rt.cudaLaunchKernel("vecadd", [a, a, a])
    rt.cudaDeviceSynchronize()
    system.fail_partition("gpu0")
    try:
        rt.cudaMalloc((16,))
    except Exception:
        pass  # expected: the stream observes the failure and traps
    for event in system.platform.tracer.events():
        print(event)
    return 0


def _cmd_obs(args) -> int:
    """Figure 9 with observability on: Perfetto trace + recovery breakdown."""
    from repro.faults.campaign import make_figure9_system
    from repro.faults.failover import run_failover_experiment
    from repro.metrics import recovery_table, span_tree
    from repro.obs import (
        chrome_trace,
        collect_system_metrics,
        recovery_phases,
        validate_chrome_trace,
        write_chrome_trace,
    )

    system = make_figure9_system(obs=args.obs_enabled)
    result = run_failover_experiment(
        system=system,
        duration_us=600_000.0,
        crash_at_us=200_000.0,
        bucket_us=50_000.0,
        detection=args.detection,
    )
    obs = system.platform.obs
    print(f"spans recorded: {len(obs)} (dropped {obs.dropped}); "
          f"flight dumps: {len(obs.flight_dumps)}")
    if not obs.enabled:
        print("observability disabled (--disabled); nothing to export")
        return 0

    problems = validate_chrome_trace(chrome_trace(obs.spans()))
    if problems:
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        return 1
    print(f"chrome trace: {write_chrome_trace(obs, args.out)} (schema ok)")

    # The crashed request's trace: recovery spans live in the trace of the
    # request that was active on the partition when it died.
    recovery_spans = obs.spans(category="recovery")
    trace_id = recovery_spans[0].context.trace_id if recovery_spans else None
    phases = recovery_phases(obs, trace_id=trace_id)
    print(f"\nrecovery breakdown (trace {trace_id}):")
    print(recovery_table(phases))
    failover_us = result.detection_us + result.recovery_us + result.resubmit_us
    print(f"reported failover latency: {failover_us:.3f} us "
          f"(detect {result.detection_us:.3f} + recover {result.recovery_us:.3f}"
          f" + resubmit {result.resubmit_us:.3f})")

    if trace_id is not None:
        print(f"\nspan tree of the crashed request (trace {trace_id}):")
        print(span_tree(obs.spans(trace_id=trace_id)))

    registry = collect_system_metrics(system)
    print(f"\nmetrics fingerprint: {registry.fingerprint()}")
    print(registry.render())
    return 0


def _cmd_cluster(args) -> int:
    """A tiny sharded-cluster serving demo: 2 nodes, a mid-trace node
    kill, checkpoint migration, and the merged cluster SLO table."""
    from repro.cluster import Cluster, ClusterServingSystem
    from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model

    profile = LoadProfile(
        tenants=6,
        requests=args.requests,
        mean_rate_rps=120_000.0,
        deadline_us=80_000.0,
    )
    specs, requests = generate_trace(profile)
    cluster = Cluster(num_nodes=2, gpus_per_node=1)
    serving = ClusterServingSystem(
        cluster, service_model=synthetic_service_model()
    )
    serving.add_tenants(specs)
    kill_at = 0.5 * profile.requests / profile.mean_rate_rps * 1e6
    report = serving.run(requests, node_kill_events=[(kill_at, "node1")])

    print(f"cluster SLO (merged across {len(report.node_names)} nodes):")
    print(report.slo_text)
    print("\nper-node scale view:")
    print(report.node_table())
    print(
        f"\nkilled node1 at {kill_at / 1e3:.1f} ms: "
        f"{len(report.migrations)} checkpoint-restores, "
        f"{report.migrated_requests} requests migrated, "
        f"{report.scrub_pages_audited} session pages scrub-audited "
        f"({report.scrub_violations} violations)"
    )
    audit = report.audit_exactly_once()
    print(f"exactly-once audit: {'clean' if not audit else audit[:3]}")
    print(f"cluster fingerprint: {report.fingerprint}")
    return 1 if audit else 0


def _cmd_top(args) -> int:
    """The cluster's live-ops view: run the sharded-cluster demo with the
    telemetry pipeline attached and print per-node / per-tenant SLO
    tables, fired alerts (with recovery traces) and tail-sampler stats."""
    from repro.cluster import Cluster, ClusterServingSystem
    from repro.obs import TelemetryPipeline
    from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model

    profile = LoadProfile(
        tenants=6,
        requests=args.requests,
        mean_rate_rps=120_000.0,
        deadline_us=80_000.0,
    )
    specs, requests = generate_trace(profile)
    cluster = Cluster(num_nodes=2, gpus_per_node=1)
    telemetry = TelemetryPipeline(scrape_interval_us=args.scrape_us)
    serving = ClusterServingSystem(
        cluster, service_model=synthetic_service_model(), telemetry=telemetry
    )
    serving.add_tenants(specs)
    kill_at = 0.5 * profile.requests / profile.mean_rate_rps * 1e6
    report = serving.run(requests, node_kill_events=[(kill_at, "node1")])

    print(f"nodes ({len(report.node_names)}):")
    print(telemetry.node_table())
    print("\ntenants:")
    print(telemetry.tenant_table())
    print("\nalerts:")
    print(telemetry.alert_table())
    stats = telemetry.sampler_stats()
    print(
        f"\ntail sampler: {stats.get('retained', 0)}/{stats.get('considered', 0)} "
        f"traces retained ({stats.get('retained_bytes', 0)} bytes, "
        f"budget {stats.get('byte_budget', 0)}), "
        f"{stats.get('discarded_spans', 0)} spans discarded"
    )
    if args.dump_traces is not None:
        written = telemetry.alerts.dump_recovery_traces(args.dump_traces)
        print(f"recovery traces dumped: {written if written else 'none'}")
    print(f"telemetry fingerprint: {telemetry.fingerprint()}")
    return 0


_COMMANDS = {
    "attest": _cmd_attest,
    "attacks": _cmd_attacks,
    "rodinia": _cmd_rodinia,
    "train": _cmd_train,
    "failover": _cmd_failover,
    "tcb": _cmd_tcb,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
    "cluster": _cmd_cluster,
    "top": _cmd_top,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="CRONUS reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        if name == "rodinia":
            cmd.add_argument("bench", nargs="*", help="bench names (default: all)")
        if name == "obs":
            cmd.add_argument(
                "--out", default="trace.json",
                help="Chrome trace-event JSON output path (default: trace.json)",
            )
            cmd.add_argument(
                "--detection", choices=("panic", "watchdog"), default="panic",
                help="failure-identification mode (default: panic)",
            )
            cmd.add_argument(
                "--disabled", dest="obs_enabled", action="store_false",
                help="run with observability off (inertness sanity check)",
            )
        if name == "cluster":
            cmd.add_argument(
                "--requests", type=int, default=3_000,
                help="trace length of the demo (default: 3000)",
            )
        if name == "top":
            cmd.add_argument(
                "--requests", type=int, default=3_000,
                help="trace length of the demo (default: 3000)",
            )
            cmd.add_argument(
                "--scrape-us", type=float, default=5_000.0,
                help="telemetry scrape interval in virtual us (default: 5000)",
            )
            cmd.add_argument(
                "--dump-traces", default=None, metavar="DIR",
                help="dump each crash alert's recovery trace JSON into DIR",
            )
    args = parser.parse_args(argv)

    import repro.workloads  # noqa: F401  (registers kernels)

    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
