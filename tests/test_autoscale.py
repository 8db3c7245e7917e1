"""The SLO-driven autoscaler: determinism, equivalence and hardening.

Four claims are on trial here:

* **Replay determinism** — an autoscaled run's recorded boot/retire
  schedule, replayed as fixed ``scale_events``, renders the identical
  completion order, SLO fingerprint and scale fingerprint on *both*
  engines (heap and legacy scan).
* **Window equivalence** — the incremental :class:`SlidingWindow` and the
  brute-force :class:`FullHistoryWindow` reference produce bit-identical
  snapshots, and a whole serving run under either produces byte-identical
  fingerprints and decision streams.
* **Fleet hardening** — every batcher add targets a live device, so no
  parked or booting device ever holds queued work; a flush obligation
  that does reach a parked device re-places its work instead of
  resurrecting the device, and so does a crashed-then-retired device's
  (the dead-device-resurrect bugfix).
* **Accounting** — device-seconds integrate live intervals exactly, and
  the elastic fleet spends less than the static one on a trough-heavy
  profile.
"""

import dataclasses

import pytest

from repro.faults import make_figure9_system
from repro.serve import (
    Autoscaler,
    AutoscalerError,
    AutoscalerPolicy,
    DeadlineBatcher,
    FullHistoryWindow,
    LoadProfile,
    Request,
    ServingSystem,
    SlidingWindow,
    generate_trace,
    synthetic_service_model,
)
from repro.serve.legacy import LegacyServingSystem

PROFILE = LoadProfile(
    seed=2022,
    tenants=60,
    requests=4_000,
    mean_rate_rps=20_000.0,
    diurnal_period_us=200_000.0,
    burst_rate_multiplier=2.0,
)
POLICY = AutoscalerPolicy(
    window_us=50_000.0,
    eval_interval_us=10_000.0,
    min_devices=1,
    boot_delay_us=10_000.0,
    scale_down_ticks=2,
    scale_down_cooldown_us=20_000.0,
)


def build(cls, specs, **kwargs):
    serving = cls(
        make_figure9_system(num_gpus=4),
        max_batch=32,
        max_delay_us=5_000.0,
        service_model=synthetic_service_model(),
        **kwargs,
    )
    for spec in specs:
        serving.add_tenant(spec)
    return serving


def pin_adds_to_live_devices(serving):
    """Wrap ``serving.batcher.add``: every add must target a live device,
    and no parked or booting device may hold queued work.  Returns the
    list of devices added to (filled in as the run goes)."""
    add = serving.batcher.add
    added = []

    def checked_add(device, request, now_us):
        states = serving.fleet_states()
        assert states[device] == "live", (device, states[device], now_us)
        added.append(device)
        full = add(device, request, now_us)
        assert_no_idle_work(serving)
        return full

    serving.batcher.add = checked_add
    return added


def assert_no_idle_work(serving):
    for device, state in serving.fleet_states().items():
        if state in ("parked", "booting"):
            assert serving.batcher.depth(device) == 0, (device, state)


def autoscaled_run(profile=PROFILE, policy=POLICY, **kwargs):
    specs, trace = generate_trace(profile)
    serving = build(ServingSystem, specs, autoscaler=policy, **kwargs)
    added = pin_adds_to_live_devices(serving)
    report = serving.run(list(trace))
    assert added
    assert_no_idle_work(serving)
    return serving, report, specs, trace


def observable(report):
    return {
        "fingerprint": report.fingerprint,
        "scale_fingerprint": report.scale_fingerprint,
        "completion_order": list(report.completed.items()),
        "scaling_events": report.scaling_events,
        "audit": report.audit_exactly_once(),
        "makespan_us": report.makespan_us,
        "initial_live": report.initial_live,
    }


# -- replay determinism -------------------------------------------------------
@pytest.mark.parametrize("seed", [2022, 7, 31337])
def test_scale_schedule_replays_identically_on_both_engines(seed):
    """The tentpole property: record an autoscaled run, replay its decision
    schedule as fixed scale_events on the heap AND the legacy scan engine,
    and every observable — completion order, SLO fingerprint, scaling
    trajectory — matches byte-for-byte."""
    profile = dataclasses.replace(PROFILE, seed=seed)
    serving, report, specs, trace = autoscaled_run(profile)
    assert report.audit_exactly_once() == []
    assert report.scaling_events, "policy must actually scale on this profile"
    schedule = report.scale_schedule()
    assert schedule and all(a in ("boot", "retire") for _, a, _ in schedule)
    original = observable(report)
    for cls in (ServingSystem, LegacyServingSystem):
        replaying = build(
            cls,
            specs,
            initial_live=list(report.initial_live),
            boot_delay_us=serving.boot_delay_us,
        )
        added = pin_adds_to_live_devices(replaying)
        replayed = replaying.run(list(trace), scale_events=schedule)
        assert added
        assert_no_idle_work(replaying)
        assert observable(replayed) == original, cls.__name__


def test_autoscaled_runs_agree_across_engines():
    """Running the controller live (not replayed) on both engines also
    renders the identical world — decisions land on the same grid."""
    serving, report, specs, trace = autoscaled_run()
    legacy = build(LegacyServingSystem, specs, autoscaler=POLICY)
    assert observable(legacy.run(list(trace))) == observable(report)


def test_two_replays_are_byte_identical():
    serving, report, specs, trace = autoscaled_run()
    runs = [
        build(
            ServingSystem,
            specs,
            initial_live=list(report.initial_live),
            boot_delay_us=serving.boot_delay_us,
        ).run(list(trace), scale_events=report.scale_schedule())
        for _ in range(2)
    ]
    assert observable(runs[0]) == observable(runs[1])
    assert runs[0].slo_text == runs[1].slo_text


# -- brute-force window equivalence -------------------------------------------
def test_incremental_matches_brute_force_reference_policy():
    serving, report, _, trace = autoscaled_run()
    specs, _ = generate_trace(PROFILE)
    brute = build(
        ServingSystem, specs, autoscaler=Autoscaler(POLICY, brute_force=True)
    )
    brute_report = brute.run(list(trace))
    assert observable(brute_report) == observable(report)
    assert brute.autoscaler.stats["brute_force"] == 1


def test_window_snapshots_bit_identical():
    """Property test at the unit level: an arbitrary interleaving of
    observations and snapshots gives bit-identical aggregates from the
    incremental window and the full-history reference."""
    import random

    rng = random.Random(2022)
    incremental = SlidingWindow(1_000.0)
    reference = FullHistoryWindow(1_000.0)
    t = 0.0
    for _ in range(5_000):
        t += rng.expovariate(1.0) * 50.0
        roll = rng.random()
        if roll < 0.5:
            incremental.observe_arrival(t)
            reference.observe_arrival(t)
        elif roll < 0.6:
            incremental.observe_rejection(t)
            reference.observe_rejection(t)
        elif roll < 0.65:
            incremental.observe_parked(t)
            reference.observe_parked(t)
        else:
            latency = rng.uniform(10.0, 5_000.0)
            service = rng.uniform(1.0, 80.0)
            incremental.observe_completion(t, latency, service)
            reference.observe_completion(t, latency, service)
        if roll > 0.9:
            assert incremental.snapshot(t) == reference.snapshot(t)
    assert incremental.snapshot(t) == reference.snapshot(t)


# -- heap hardening -----------------------------------------------------------
def _request(rid, arrival_us, deadline_us, tenant="t0"):
    return Request(
        tenant=tenant,
        rid=rid,
        arrival_us=arrival_us,
        deadline_us=deadline_us,
        kind="matmul",
        size=8,
        device_type="gpu",
    )


def test_due_heap_compaction_preserves_flush_order():
    churn = DeadlineBatcher(max_batch=10**9, max_delay_us=10**9)
    plain = DeadlineBatcher(max_batch=10**9, max_delay_us=10**9)
    for i in range(5_000):
        request = _request(f"r{i}", 0.0, 1e6 - i)
        churn.add(f"gpu{i % 3}", request, 0.0)
        plain.add(f"gpu{i % 3}", request, 0.0)
    assert churn.earliest_due() == plain.earliest_due()
    assert churn.due_partitions(1e6) == plain.due_partitions(1e6)


def test_flush_due_on_a_parked_device_replaces_its_work():
    """The one guard left: a flush obligation that reaches a parked
    device re-places its request on the live fleet, where it completes
    exactly once, and the parked device never gets a worker."""
    specs, trace = generate_trace(PROFILE)
    serving = build(ServingSystem, specs, initial_live=["gpu0", "gpu1"])
    assert serving.fleet_states()["gpu3"] == "parked"
    request = next(r for r in trace if r.deadline_us > r.arrival_us + 20_000.0)
    assert serving.offer(request).admitted
    for device in serving.batcher.depths():
        assert serving.batcher.evict(device) == [request]
    serving.batcher.add("gpu3", request, request.arrival_us)
    due = serving.batcher.due_at("gpu3")
    assert due == request.arrival_us + 5_000.0
    serving.advance(due + 1.0)
    serving.flush_due(due + 1.0)
    assert serving.batcher.depth("gpu3") == 0
    assert sum(serving.batcher.depths().values()) == 1
    report = serving.run([])
    assert list(report.completed) == [request.rid]
    assert report.audit_exactly_once() == []
    assert report.fleet_states["gpu3"] == "parked"
    assert "gpu3" not in serving._workers


def test_crash_then_retire_never_resurrects_the_device():
    """The dead-device-resurrect bugfix: crash a device mid-load, then
    retire it while it is still down.  Its stale due entries must be
    skipped, its pending work must fail over, and the run must stay
    exactly-once with the device parked at the end."""
    profile = dataclasses.replace(PROFILE, requests=2_000)
    specs, trace = generate_trace(profile)
    serving = build(ServingSystem, specs, initial_live=["gpu0", "gpu1"])
    victim = serving.initial_live[-1]
    crash_at = trace[len(trace) // 4].arrival_us
    added = pin_adds_to_live_devices(serving)
    report = serving.run(
        list(trace),
        crash_events=[(crash_at, victim)],
        scale_events=[(crash_at + 1.0, "retire", victim)],
    )
    assert added
    assert_no_idle_work(serving)
    assert report.audit_exactly_once() == []
    assert report.crashes == (victim,)
    assert report.fleet_states[victim] == "parked"
    # Nothing executed on the victim after the crash instant: its worker
    # generation count never grew past the pre-crash one, and no batch
    # formed for it post-retire (it would need a live due entry).
    retired_events = [e for e in report.scaling_events if e[2] == victim]
    assert [action for _, action, _ in retired_events] == ["retire", "park"]
    # The same scenario replays deterministically on the legacy engine.
    legacy = build(
        LegacyServingSystem,
        specs,
        initial_live=list(serving.initial_live),
        boot_delay_us=serving.boot_delay_us,
    )
    legacy_report = legacy.run(
        list(trace),
        crash_events=[(crash_at, victim)],
        scale_events=[(crash_at + 1.0, "retire", victim)],
    )
    assert legacy_report.fingerprint == report.fingerprint
    assert legacy_report.audit_exactly_once() == []


def test_booting_device_crash_is_survivable():
    """A crash landing inside a device's boot window must not wedge the
    fleet: the boot completes into the recovery path and the run stays
    exactly-once."""
    specs, trace = generate_trace(PROFILE)
    serving = build(ServingSystem, specs, autoscaler=POLICY)
    # Boot gpu3 at t=5ms; crash it mid-boot-window at t=10ms.
    report = serving.run(
        list(trace),
        crash_events=[(10_000.0, "gpu3")],
        scale_events=[(5_000.0, "boot", "gpu3")],
    )
    assert report.audit_exactly_once() == []
    assert "gpu3" in report.crashes


# -- accounting ---------------------------------------------------------------
def test_device_seconds_static_is_fleet_times_makespan():
    specs, trace = generate_trace(PROFILE)
    serving = build(ServingSystem, specs)
    report = serving.run(list(trace))
    assert report.device_seconds == pytest.approx(
        4 * report.makespan_us / 1e6
    )
    assert report.scaling_events == ()
    assert report.fleet_states == {}


def test_device_seconds_elastic_integrates_live_intervals():
    serving, report, _, _ = autoscaled_run()
    static_equiv = 4 * report.makespan_us / 1e6
    assert 0.0 < report.device_seconds < static_equiv
    # Cross-check against the event log: integrate the live count over
    # the scaling trajectory (up/park move it; boot/retire do not).
    live = len(report.initial_live)
    t_prev = 0.0
    integral = 0.0
    for t, action, _device in report.scaling_events:
        if action not in ("up", "park"):
            continue
        integral += live * (t - t_prev)
        live += 1 if action == "up" else -1
        t_prev = t
    integral += live * (report.makespan_us - t_prev)
    # Booting devices accrue live-time from their 'up' instant and
    # draining ones until 'park', which is exactly what the integral sees.
    assert report.device_seconds == pytest.approx(integral / 1e6)


# -- policy validation --------------------------------------------------------
def test_policy_rejects_bad_knobs():
    with pytest.raises(AutoscalerError):
        AutoscalerPolicy(window_us=0.0)
    with pytest.raises(AutoscalerError):
        AutoscalerPolicy(headroom=0.5)
    with pytest.raises(AutoscalerError):
        AutoscalerPolicy(min_devices=0)
    with pytest.raises(AutoscalerError):
        AutoscalerPolicy(min_devices=4, max_devices=2)


def test_run_rejects_malformed_schedule():
    specs, trace = generate_trace(PROFILE)
    serving = build(ServingSystem, specs, initial_live=["gpu0"])
    with pytest.raises(Exception, match="unknown|action"):
        serving.run(list(trace), scale_events=[(0.0, "explode", "gpu0")])


def test_scale_schedule_filters_to_decisions():
    _, report, _, _ = autoscaled_run()
    assert all(a in ("boot", "retire") for _, a, _ in report.scale_schedule())
    assert any(a in ("up", "park") for _, a, _ in report.scaling_events)


# -- backlog-aware placement --------------------------------------------------
def test_placement_spreads_a_saturating_burst():
    """A flushed-but-unfinished batch must keep counting against its
    device: scoring on pending depth alone let every post-flush wave pile
    onto the lowest-named device (its queue read 0 while its worker
    backlog grew without bound), saturating one GPU while the rest
    idled."""
    profile = dataclasses.replace(
        PROFILE, requests=8_000, mean_rate_rps=400_000.0
    )
    specs, trace = generate_trace(profile)
    states = []
    for cls in (ServingSystem, LegacyServingSystem):
        serving = build(cls, specs)
        report = serving.run(list(trace))
        assert report.audit_exactly_once() == []
        calls = {d: w.calls for d, w in serving._workers.items()}
        total = sum(calls.values())
        fair = total / 4
        assert max(calls.values()) < 2 * fair, (
            f"placement is lopsided under overload: {calls}"
        )
        states.append((report.fingerprint, dict(calls)))
    # Both engines see the identical (balanced) placement.
    assert states[0] == states[1]


def test_effective_depth_drains_with_virtual_time():
    """The in-flight backlog term counts only completions still in the
    future and is pruned as the clock passes them."""
    specs, trace = generate_trace(dataclasses.replace(PROFILE, requests=500))
    serving = build(ServingSystem, specs)
    report = serving.run(list(trace))
    # The final flush charges completions past the last event instant, so
    # mid-flight backlog is allowed at run end; once the clock passes the
    # last completion the backlog term collapses back to the (empty)
    # pending queue on every device.
    serving._now = max(report.completed.values()) + 1.0
    for device in list(serving._workers):
        assert serving._effective_depth(device) == 0
        assert not serving._inflight.get(device)
