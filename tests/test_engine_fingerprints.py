"""Pinned simulated-time fingerprints of the three serving engines.

Simulated time is the result this repository reproduces, so a change to
how an engine schedules its events must leave every digest below
byte-identical.  Each scenario is a small fixed-seed run; the pins were
computed before the engines moved onto :mod:`repro.sim.events` and must
never be regenerated to make a refactor pass.

``PYTHONPATH=src python tests/test_engine_fingerprints.py`` prints the
current digests in the ``PINNED`` layout.
"""

import hashlib

import pytest

from repro.cluster import Cluster, ClusterServingSystem
from repro.faults import make_figure9_system
from repro.faults.injector import CRASH, FaultPlan, FaultRule, armed
from repro.obs.telemetry import TelemetryPipeline
from repro.serve import (
    AutoscalerPolicy,
    LLMEngine,
    LoadProfile,
    MODE_CONTINUOUS,
    MODE_STATIC,
    ServingSystem,
    TenantSpec,
    generate_trace,
    open_loop_arrivals,
    synthetic_service_model,
)
from repro.serve.llm import llm_arrivals
from repro.systems import CronusSystem, TestbedConfig


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _serving_pins(report) -> dict:
    return {
        "slo": report.fingerprint,
        "run": _digest(
            list(report.completed.items()),
            sorted(report.expired),
            report.crashes,
            f"{report.makespan_us:.6f}",
            report.batcher_stats,
        ),
    }


def _build_node(specs, **kwargs):
    serving = ServingSystem(
        make_figure9_system(num_gpus=4),
        max_batch=32,
        max_delay_us=5_000.0,
        service_model=synthetic_service_model(),
        **kwargs,
    )
    for spec in specs:
        serving.add_tenant(spec)
    return serving


def serving_crash():
    """Two scheduled partition crashes under telemetry (scrape phase on)."""
    specs, trace = generate_trace(LoadProfile(
        seed=11, tenants=12, requests=2_000, mean_rate_rps=100_000.0,
        deadline_us=40_000.0,
    ))
    telemetry = TelemetryPipeline(scrape_interval_us=2_000.0, p99_slo_us=5_000.0)
    serving = _build_node(specs, telemetry=telemetry)
    report = serving.run(
        trace, crash_events=[(6_000.0, "gpu1"), (12_000.0, "gpu2")]
    )
    return {
        **_serving_pins(report),
        "store": telemetry.store_fingerprint(),
        "alerts": telemetry.alert_fingerprint(),
    }


def serving_injected_crash():
    """A seeded injected crash mid-execution on the real enclave stack."""
    serving = ServingSystem(
        make_figure9_system(num_gpus=2), max_batch=4, max_delay_us=1_500.0
    )
    arrivals = []
    for i in range(3):
        tenant = serving.add_tenant(TenantSpec(
            f"tenant-{i}", rate_limit_rps=2_000.0, burst=16, deadline_us=300_000.0,
        ))
        arrivals += open_loop_arrivals(
            tenant, count=12, seed=2022 + i, mean_interarrival_us=2_500.0
        )
    plan = FaultPlan(
        seed=2022,
        rules=(FaultRule(site="srpc.enqueue", action=CRASH, nth=40, target="gpu0"),),
    )
    with armed(plan, crash_handler=serving.injected_crash):
        report = serving.run(arrivals)
    return _serving_pins(report)


_SCALE_PROFILE = LoadProfile(
    seed=2022, tenants=30, requests=2_000, mean_rate_rps=20_000.0,
    diurnal_period_us=100_000.0, burst_rate_multiplier=2.0,
)
_SCALE_POLICY = AutoscalerPolicy(
    window_us=50_000.0, eval_interval_us=10_000.0, min_devices=1,
    boot_delay_us=10_000.0, scale_down_ticks=2, scale_down_cooldown_us=20_000.0,
)


def _autoscaled():
    specs, trace = generate_trace(_SCALE_PROFILE)
    serving = _build_node(specs, autoscaler=_SCALE_POLICY)
    return serving, serving.run(list(trace)), specs, trace


def serving_autoscaled():
    _, report, _, _ = _autoscaled()
    return {**_serving_pins(report), "scale": report.scale_fingerprint}


def serving_scale_replay():
    """The autoscaled run's decisions replayed as fixed scale events."""
    serving, report, specs, trace = _autoscaled()
    replay = _build_node(
        specs,
        initial_live=list(report.initial_live),
        boot_delay_us=serving.boot_delay_us,
    ).run(list(trace), scale_events=report.scale_schedule())
    return {**_serving_pins(replay), "scale": replay.scale_fingerprint}


def _llm_run(mode, crash_events=(), telemetry=None):
    engine = LLMEngine(
        CronusSystem(TestbedConfig(num_gpus=2)),
        max_running=4, mode=mode, telemetry=telemetry,
    )
    arrivals = []
    for i in range(2):
        tenant = engine.add_tenant(TenantSpec(
            f"llm-{i}", rate_limit_rps=1e9, burst=1 << 20,
            memory_quota_bytes=1 << 40, max_queue_depth=12, deadline_us=1e9,
        ))
        arrivals += llm_arrivals(
            tenant, engine.config, count=20, seed=5 + i,
            mean_interarrival_us=150.0,
        )
    report = engine.run(arrivals, crash_events=crash_events)
    return {
        "token": report.token_fingerprint,
        "slo": report.slo_fingerprint,
        "run": _digest(
            sorted(report.completed.items()),
            sorted(report.prefill_audit.items()),
            report.crashes,
            report.iterations,
            f"{report.makespan_us:.6f}",
        ),
    }


def llm_continuous_crash():
    """Continuous decode; gpu0 crashes mid-decode under telemetry."""
    telemetry = TelemetryPipeline(scrape_interval_us=1_000.0)
    pins = _llm_run(
        MODE_CONTINUOUS, crash_events=[(2_000.0, "gpu0")], telemetry=telemetry
    )
    return {**pins, "store": telemetry.store_fingerprint()}


def llm_static():
    return _llm_run(MODE_STATIC)


def cluster_kill_and_crash():
    """A node kill plus a partition crash on a survivor, telemetry on."""
    specs, trace = generate_trace(LoadProfile(
        seed=3, tenants=16, requests=2_000, mean_rate_rps=400_000.0,
        deadline_us=50_000.0,
    ))
    telemetry = TelemetryPipeline(scrape_interval_us=1_000.0)
    serving = ClusterServingSystem(
        Cluster(num_nodes=3, gpus_per_node=2),
        max_batch=16,
        service_model=synthetic_service_model(),
        telemetry=telemetry,
    )
    serving.add_tenants(specs)
    report = serving.run(
        trace,
        node_kill_events=[(2_000.0, "node1")],
        crash_events=[(3_000.0, "node2", "gpu0")],
    )
    return {
        "cluster": report.fingerprint,
        "run": _digest(
            report.migrated_requests, report.scrub_pages_audited,
            report.orphaned, f"{report.makespan_us:.6f}",
        ),
        "store": telemetry.store_fingerprint(),
        "alerts": telemetry.alert_fingerprint(),
    }


SCENARIOS = {
    f.__name__: f
    for f in (
        serving_crash,
        serving_injected_crash,
        serving_autoscaled,
        serving_scale_replay,
        llm_continuous_crash,
        llm_static,
        cluster_kill_and_crash,
    )
}

PINNED = {
    "cluster_kill_and_crash": {
        "cluster": "d936c681a6de49850ce806b14b1c9c19a2ff2b74bf6981e87324b4c0d3b109bf",
        "run": "9fbbb13a5f38067212c3042feeb762f29de715e45948180a7f1905130a0c4713",
        "store": "67e4e7e54850427730af7fd85d8c9ff55f5e430c8a27fe6231e0a5f0a38439e4",
        "alerts": "e44057c7478257912f3d690ece8b42aea179066e7004b50b2f6067f57816bb44",
    },
    "llm_continuous_crash": {
        "token": "71b0a2413999c498f938d752db2bfc41c25b7f15a20665f9ba225434a2324c89",
        "slo": "dbc110ecc04033284e963feb6685bb9022bbae5018f7f3ffc1e766230e80f421",
        "run": "49d181cd108c7f46297c3e6280a88ceda519b739f6ba900be936e58d1da60814",
        "store": "54dc1fd6fb78d87fad3e666d12f3571fecae878f3b84c1a2e75ad8745ccb3e1b",
    },
    "llm_static": {
        "token": "e7f684520e625ac54dde48ec02d724c2bb7daf83dd41c16aa11f54483035f0b9",
        "slo": "39b7bb0423df427b334c43b18e439348eaf94c12a5c3528d77330f603af8776a",
        "run": "f87fe071d2e16334d93d8b6c538638d4b879c28369e4273bcb0288a7acc04464",
    },
    "serving_autoscaled": {
        "slo": "0482bb72f3e7317f3897608254e6b136c7e68bd9c42ae7f7a7f2be43a2b78021",
        "run": "e18532d361ecccfb7b06b2026919d2ad9be71cb0b1c458a1791171e39a4a75e1",
        "scale": "50eaede7f24d790950a589674cb08648d4ab2aaa07699b5f9f59e511769ca1bc",
    },
    "serving_crash": {
        "slo": "080f99de367d71dd0a3f12554667a74d02985dbda169d3651d27b91a60b36d25",
        "run": "043f96267feb4c76ebf1c08dc8e7fe8c87a230df7b4fcce6f2bc19d98be0211c",
        "store": "597e7090a2f5ef52728e87e7b1bdb92206ded980beee3c62fb1f2f50ed20353b",
        "alerts": "e0c4d3f7464466aec2b9c9cb87aa9e826e090274ff7434a299add69ed5195aca",
    },
    "serving_injected_crash": {
        "slo": "4f8f4ad8025384b0f08407913b01a1ab7fe6bdb3d8d369e4a8072da2ff275f3e",
        "run": "ed3b534eaf13a6dd7ebee246c6d2ef0f15a72f9986a7e7b86e5ac985ce7f58ca",
    },
    "serving_scale_replay": {
        "slo": "0482bb72f3e7317f3897608254e6b136c7e68bd9c42ae7f7a7f2be43a2b78021",
        "run": "e18532d361ecccfb7b06b2026919d2ad9be71cb0b1c458a1791171e39a4a75e1",
        "scale": "50eaede7f24d790950a589674cb08648d4ab2aaa07699b5f9f59e511769ca1bc",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_is_pinned(name):
    assert SCENARIOS[name]() == PINNED[name]


if __name__ == "__main__":
    import repro.workloads  # noqa: F401  (registers kernels)

    for name in sorted(SCENARIOS):
        print(f'    "{name}": {{')
        for key, value in SCENARIOS[name]().items():
            print(f'        "{key}": "{value}",')
        print("    },")
