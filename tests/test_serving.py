"""Multi-tenant serving layer: admission, batching, placement, SLOs, failover.

The end-to-end scenarios drive the real mEnclave stack (every "completed"
request ran a matmul on a partition and verified against a host reference);
the noisy-neighbour test checks the load-isolation story byte-for-byte, and
the crash tests check the at-most-once / no-loss guarantee under the
section IV-D failover, lifted into the serving layer.
"""

from __future__ import annotations

import pytest

from repro.dispatch.dispatcher import DispatchError, NoReadyPartition
from repro.faults.injector import CRASH, FaultPlan, FaultRule, armed
from repro.secure.partition import PartitionState
from repro.serve import (
    AdmissionController,
    DeadlineBatcher,
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
    REJECT_RATE,
    REJECT_UNKNOWN,
    Request,
    ServingSystem,
    SpatialPlacer,
    TenantError,
    TenantRegistry,
    TenantSpec,
    open_loop_arrivals,
)
from repro.serve.frontend import ServingError
from repro.serve.slo import SLOAccount, nearest_rank
from repro.systems import CronusSystem, TestbedConfig


def request(rid="r-0", tenant="t", arrival=0.0, deadline=1e6, **kw):
    return Request(
        tenant=tenant, rid=rid, arrival_us=arrival, deadline_us=deadline, **kw
    )


class TestTenantRegistry:
    def test_spec_validation(self):
        with pytest.raises(TenantError):
            TenantSpec("bad", rate_limit_rps=0.0)
        with pytest.raises(TenantError):
            TenantSpec("bad", burst=0)
        with pytest.raises(TenantError):
            TenantSpec("bad", max_queue_depth=0)

    def test_duplicate_and_unknown(self):
        registry = TenantRegistry()
        registry.register(TenantSpec("a"))
        with pytest.raises(TenantError):
            registry.register(TenantSpec("a"))
        with pytest.raises(TenantError):
            registry.get("nobody")
        assert registry.known("a") and not registry.known("nobody")

    def test_priority_order(self):
        registry = TenantRegistry()
        registry.register(TenantSpec("zeta", priority=0))
        registry.register(TenantSpec("beta", priority=1))
        registry.register(TenantSpec("alpha", priority=1))
        assert [t.name for t in registry.tenants()] == ["zeta", "alpha", "beta"]

    def test_token_bucket_refill(self):
        tenant = TenantRegistry().register(
            TenantSpec("t", rate_limit_rps=100.0, burst=4)
        )
        tenant.refill(0.0)
        assert tenant.tokens == 4.0  # first refill fills the bucket
        tenant.tokens = 0.0
        tenant.refill(10_000.0)  # 10 ms at 100 rps -> 1 token
        assert tenant.tokens == pytest.approx(1.0)
        tenant.refill(1e9)
        assert tenant.tokens == 4.0  # capped at burst


class TestAdmission:
    def make(self, **spec_kw):
        registry = TenantRegistry()
        registry.register(TenantSpec("t", **spec_kw))
        return registry, AdmissionController(registry)

    def test_unknown_tenant(self):
        _, admission = self.make()
        decision = admission.offer(request(tenant="ghost"), 0.0)
        assert not decision.admitted and decision.reason == REJECT_UNKNOWN

    def test_rate_limit_and_recovery(self):
        _, admission = self.make(rate_limit_rps=100.0, burst=2, max_queue_depth=64)
        assert admission.offer(request("r-0"), 0.0).admitted
        assert admission.offer(request("r-1"), 0.0).admitted
        decision = admission.offer(request("r-2"), 0.0)
        assert decision.reason == REJECT_RATE
        # 20 ms at 100 rps refills two tokens.
        assert admission.offer(request("r-3"), 20_000.0).admitted

    def test_queue_bound_and_settle(self):
        _, admission = self.make(burst=8, max_queue_depth=1)
        first = request("r-0")
        assert admission.offer(first, 0.0).admitted
        assert admission.offer(request("r-1"), 0.0).reason == REJECT_QUEUE_FULL
        admission.settle(first)  # terminal: frees the queue slot
        assert admission.offer(request("r-2"), 0.0).admitted

    def test_memory_quota(self):
        # One size-8 matmul holds A, B and C at once: 3 * 8*8 * 4 = 768 bytes.
        _, admission = self.make(burst=8, memory_quota_bytes=768)
        assert request().memory_bytes == 768
        first = request("r-0")
        assert admission.offer(first, 0.0).admitted
        assert admission.offer(request("r-1"), 0.0).reason == REJECT_QUOTA
        admission.settle(first)
        assert admission.offer(request("r-2"), 0.0).admitted

    def test_settle_is_idempotent(self):
        registry, admission = self.make(burst=8, max_queue_depth=4)
        tenant = registry.get("t")
        first = request("r-0")
        assert admission.offer(first, 0.0).admitted
        assert admission.settle(first) is True
        # A second settle of the same rid (the crash-then-expire shape:
        # expired while parked, then surfacing again on a completion
        # path) must be ignored, not double-release the accounting.
        assert admission.settle(first) is False
        assert admission.double_settles == 1
        assert tenant.in_flight == 0
        assert tenant.in_flight_bytes == 0


class TestOpenLoopArrivals:
    def test_deterministic_and_independent(self):
        registry = TenantRegistry()
        tenant = registry.register(TenantSpec("a", rate_limit_rps=100.0))
        first = open_loop_arrivals(tenant, count=20, seed=7)
        # Generating some *other* tenant's stream in between must not
        # perturb this tenant's stream (independent seeded RNGs).
        other = registry.register(TenantSpec("b"))
        open_loop_arrivals(other, count=50, seed=99)
        second = open_loop_arrivals(tenant, count=20, seed=7)
        assert [(r.rid, r.arrival_us, r.data_seed) for r in first] == [
            (r.rid, r.arrival_us, r.data_seed) for r in second
        ]
        different = open_loop_arrivals(tenant, count=20, seed=8)
        assert [r.arrival_us for r in different] != [r.arrival_us for r in first]

    def test_stream_shape(self):
        tenant = TenantRegistry().register(
            TenantSpec("a", rate_limit_rps=100.0, deadline_us=5_000.0)
        )
        stream = open_loop_arrivals(tenant, count=5, seed=1, start_us=100.0)
        assert [r.rid for r in stream] == [f"a-{i:07d}" for i in range(5)]
        assert all(r.arrival_us > 100.0 for r in stream)
        times = [r.arrival_us for r in stream]
        assert times == sorted(times)
        assert all(r.deadline_us == r.arrival_us + 5_000.0 for r in stream)

    def test_rid_order_survives_100k_ids(self):
        # The rid padding must keep lexicographic order == numeric order
        # well past 100k requests per tenant (the old 5/6-digit padding
        # broke ordering at 100_000: "a-100000" < "a-99999").
        tenant = TenantRegistry().register(TenantSpec("a", rate_limit_rps=100.0))
        count = 100_050
        stream = open_loop_arrivals(tenant, count=count, seed=3)
        rids = [r.rid for r in stream]
        assert rids == sorted(rids)
        assert rids[-1] == f"a-{count - 1:07d}"


class TestDeadlineBatcher:
    def test_flush_on_max_batch(self):
        batcher = DeadlineBatcher(max_batch=2, max_delay_us=1e6)
        assert not batcher.add("gpu0", request("r-0"), 0.0)
        assert batcher.add("gpu0", request("r-1"), 0.0)  # full -> flush now
        batch = batcher.flush("gpu0", 5.0)
        assert len(batch) == 2 and batch.formed_us == 5.0
        assert batcher.flush("gpu0", 5.0) is None

    def test_edf_order_with_rid_tiebreak(self):
        batcher = DeadlineBatcher(max_batch=8)
        batcher.add("gpu0", request("r-b", deadline=100.0), 0.0)
        batcher.add("gpu0", request("r-a", deadline=100.0), 0.0)
        batcher.add("gpu0", request("r-c", deadline=50.0), 0.0)
        batch = batcher.flush("gpu0", 0.0)
        assert [r.rid for r in batch.requests] == ["r-c", "r-a", "r-b"]

    def test_due_at_takes_deadline_pressure(self):
        batcher = DeadlineBatcher(max_batch=8, max_delay_us=2_000.0)
        batcher.add("gpu0", request("r-0", deadline=50_000.0), 1_000.0)
        assert batcher.due_at("gpu0") == 3_000.0  # oldest + max_delay
        batcher.add("gpu0", request("r-1", deadline=1_500.0), 1_200.0)
        assert batcher.due_at("gpu0") == 1_500.0  # deadline pressure wins
        assert batcher.earliest_due() == (1_500.0, "gpu0")

    def test_evict_for_crash_requeue(self):
        batcher = DeadlineBatcher(max_batch=8)
        batcher.add("gpu0", request("r-0"), 0.0)
        batcher.add("gpu1", request("r-1"), 0.0)
        evicted = batcher.evict("gpu0")
        assert [r.rid for r in evicted] == ["r-0"]
        assert batcher.depths() == {"gpu1": 1}

    def test_stats(self):
        batcher = DeadlineBatcher(max_batch=8)
        batcher.add("gpu0", request("r-0"), 0.0)
        batcher.add("gpu0", request("r-1"), 0.0)
        batcher.flush("gpu0", 0.0)
        assert batcher.stats == {
            "batches_formed": 1,
            "requests_batched": 2,
            "mean_occupancy": 2.0,
        }


class TestSpatialPlacer:
    def test_pinning_and_unknown_device(self, cronus2gpu):
        placer = SpatialPlacer(cronus2gpu.dispatcher)
        mos = placer.place(request(device_name="gpu1"), {})
        assert mos.partition.device.name == "gpu1"
        with pytest.raises(DispatchError, match="gpu9"):
            placer.place(request(device_name="gpu9"), {})

    def test_queue_depth_steers_placement(self, cronus2gpu):
        placer = SpatialPlacer(cronus2gpu.dispatcher)
        # Equal scores tie-break on device name.
        assert placer.place(request(), {}).partition.device.name == "gpu0"
        assert (
            placer.place(request(), {"gpu0": 4}).partition.device.name == "gpu1"
        )

    def test_no_ready_partition_parks_not_fails(self, cronus2gpu):
        placer = SpatialPlacer(cronus2gpu.dispatcher)
        down = {"gpu0"}
        is_ready = lambda m: m.partition.device.name not in down
        mos = placer.place(request(), {}, is_ready=is_ready)
        assert mos.partition.device.name == "gpu1"
        down.add("gpu1")
        with pytest.raises(NoReadyPartition):
            placer.place(request(), {}, is_ready=is_ready)


class TestSLOMath:
    def test_nearest_rank(self):
        assert nearest_rank([], 99) == 0.0
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 50) == 50.0
        assert nearest_rank(values, 99) == 99.0
        assert nearest_rank([7.0], 99) == 7.0

    def test_nearest_rank_fractional_pct_is_exact(self):
        # 99.9 * 1000 / 100 is 999.0000000000001 in binary floats; the
        # old ceil trick rounded that up to rank 1000.  The exact rank
        # for p99.9 of 1000 samples is 999.
        values = [float(v) for v in range(1, 1001)]
        assert nearest_rank(values, 99.9) == 999.0

    def test_nearest_rank_matches_brute_force(self):
        # Brute force definition: the smallest value v in the sorted list
        # such that at least pct% of the samples are <= v (with the rank
        # computed in exact rational arithmetic).
        from fractions import Fraction

        for pct in (50, 95, 99, 99.9):
            target = Fraction(str(pct)) / 100
            for n in range(1, 201):
                values = [float(v) for v in range(1, n + 1)]
                rank = next(
                    k for k in range(1, n + 1) if Fraction(k, n) >= target
                )
                assert nearest_rank(values, pct) == values[rank - 1], (pct, n)

    def test_goodput_uses_tenant_local_window(self):
        acct = SLOAccount(tenant="t")
        acct.first_arrival_us = 1_000_000.0
        acct.last_deadline_us = 3_000_000.0  # 2 simulated seconds
        acct.deadline_met = 10
        assert acct.goodput_rps == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_merge_equals_one_account_fed_both_streams(self, seed):
        import random

        from repro.serve.slo import SLOTracker

        def feed(tracker, rng, n):
            last_token = {}
            for i in range(n):
                arrival = rng.uniform(0.0, 1e5)
                req = request(
                    f"r{i}", arrival=arrival, deadline=arrival + rng.uniform(1e3, 1e4)
                )
                tracker.record_offered(req)
                fate = rng.choice(["rejected", "completed", "expired", "decode"])
                if fate == "rejected":
                    tracker.record_rejected(req, rng.choice(["rate", "quota"]))
                    continue
                tracker.record_admitted(req)
                if rng.random() < 0.3:
                    tracker.record_requeued(req)
                    tracker.record_duplicate_avoided(req)
                if fate == "completed":
                    tracker.record_completed(req, arrival + rng.uniform(0.0, 2e4))
                elif fate == "expired":
                    tracker.record_expired(req)
                else:
                    tracker.record_sequence(req)
                    if rng.random() < 0.5:
                        tracker.record_sequence_preempted(req)
                        tracker.record_reprefill(req)
                    for _ in range(rng.randint(1, 4)):
                        emit = last_token.get(req.rid, arrival) + rng.uniform(1.0, 50.0)
                        tracker.record_token(
                            req, emit, prev_token_us=last_token.get(req.rid)
                        )
                        last_token[req.rid] = emit
                    tracker.record_sequence_finished(req)

        first, second, both = SLOTracker(), SLOTracker(), SLOTracker()
        feed(first, random.Random(seed), 40)
        feed(second, random.Random(seed + 100), 40)
        feed(both, random.Random(seed), 40)
        feed(both, random.Random(seed + 100), 40)
        merged = first.account("t")
        merged.merge(second.account("t"))
        assert merged == both.account("t")
        empty = SLOAccount(tenant="t")
        empty.merge(both.account("t"))
        assert empty == both.account("t")

    def test_row_is_byte_stable(self):
        acct = SLOAccount(tenant="t")
        row = acct.row()
        assert row["reject_rate"] == "0.000"
        assert row["p99_us"] == "0.0"
        assert row["goodput_rps"] == "0.000"


def build_serving(num_gpus=2, **kw):
    system = CronusSystem(TestbedConfig(num_gpus=num_gpus))
    kw.setdefault("max_batch", 4)
    kw.setdefault("max_delay_us", 1_500.0)
    return ServingSystem(system, **kw)


def two_tenant_scenario():
    serving = build_serving()
    alpha = serving.add_tenant(
        TenantSpec("alpha", rate_limit_rps=2_000.0, burst=16, deadline_us=300_000.0)
    )
    beta = serving.add_tenant(
        TenantSpec("beta", rate_limit_rps=2_000.0, burst=16, deadline_us=300_000.0)
    )
    arrivals = open_loop_arrivals(
        alpha, count=30, seed=11, mean_interarrival_us=2_000.0
    ) + open_loop_arrivals(beta, count=30, seed=22, mean_interarrival_us=2_000.0)
    return serving, arrivals


class TestServingEndToEnd:
    def test_all_requests_complete_exactly_once(self):
        serving, arrivals = two_tenant_scenario()
        report = serving.run(arrivals)
        assert report.audit_exactly_once() == []
        assert len(report.completed) == 60
        assert report.expired == set()
        assert report.wrong_results == 0
        assert report.duplicates_avoided == 0
        stats = report.batcher_stats
        assert stats["requests_batched"] == 60
        assert stats["mean_occupancy"] > 1.0  # batching actually batched

    def test_same_seed_runs_are_byte_identical(self):
        first = two_tenant_scenario()[0]
        report_a = first.run(two_tenant_scenario()[1])
        second, arrivals = two_tenant_scenario()
        report_b = second.run(arrivals)
        assert report_a.slo_text == report_b.slo_text
        assert report_a.fingerprint == report_b.fingerprint
        assert report_a.makespan_us == report_b.makespan_us

    def test_non_gpu_request_is_refused(self):
        serving = build_serving()
        serving.add_tenant(TenantSpec("t"))
        with pytest.raises(ServingError):
            serving.offer(request(tenant="t", device_type="npu"))

    def test_unplaceable_request_settles_as_rejected(self):
        serving = build_serving()
        serving.add_tenant(TenantSpec("t", device_name="gpu9"))
        req = request(tenant="t", device_name="gpu9")
        serving.offer(req)
        report = serving.report()
        assert req.rid in report.rejected_after_admit
        assert report.audit_exactly_once() == []
        # The queue slot was released: the tenant can offer again.
        assert serving.registry.get("t").in_flight == 0


def isolation_run(include_noisy):
    serving = build_serving(num_gpus=3)
    alpha = serving.add_tenant(
        TenantSpec(
            "alpha",
            rate_limit_rps=2_000.0,
            burst=16,
            deadline_us=300_000.0,
            device_name="gpu0",
        )
    )
    beta = serving.add_tenant(
        TenantSpec(
            "beta",
            rate_limit_rps=2_000.0,
            burst=16,
            deadline_us=300_000.0,
            device_name="gpu1",
        )
    )
    arrivals = open_loop_arrivals(
        alpha, count=25, seed=101, mean_interarrival_us=2_000.0
    ) + open_loop_arrivals(beta, count=25, seed=202, mean_interarrival_us=2_000.0)
    if include_noisy:
        noisy = serving.add_tenant(
            TenantSpec(
                "noisy",
                rate_limit_rps=500.0,
                burst=4,
                deadline_us=300_000.0,
                device_name="gpu2",
            )
        )
        # Offers at 4x its paid rate: the admission controller, not the
        # accelerator, must absorb the overload.
        arrivals += open_loop_arrivals(
            noisy, count=60, seed=303, mean_interarrival_us=500.0
        )
    report = serving.run(arrivals)
    return report, serving.slo.accounts()


class TestNoisyNeighbourIsolation:
    def test_victims_unaffected_by_noisy_tenant(self):
        baseline, base_accounts = isolation_run(include_noisy=False)
        noisy, accounts = isolation_run(include_noisy=True)
        assert baseline.audit_exactly_once() == []
        assert noisy.audit_exactly_once() == []
        # The noisy tenant is held to what it paid for...
        assert accounts["noisy"].rejected.get(REJECT_RATE, 0) > 0
        assert accounts["noisy"].rejection_rate > 0.3
        # ...while both victims' SLO rows are *byte-identical* with and
        # without it: same p50/p95/p99, same goodput, same counts.
        for tenant in ("alpha", "beta"):
            assert accounts[tenant].row() == base_accounts[tenant].row()


class TestCrashUnderLoad:
    def test_crash_mid_load_loses_nothing(self):
        serving, arrivals = two_tenant_scenario()
        report = serving.run(arrivals, crash_events=[(30_000.0, "gpu0")])
        assert report.crashes == ("gpu0",)
        assert report.audit_exactly_once() == []
        # Every admitted request completed exactly once or expired —
        # never silently lost, never duplicated.
        assert len(report.completed) + len(report.expired) == len(report.admitted)
        assert report.wrong_results == 0
        assert report.duplicates_avoided == 0
        # The crashed partition came back under a fresh worker generation.
        if "gpu0" in report.worker_stats:
            assert report.worker_stats["gpu0"]["generations"] >= 1

    def test_pinned_tenant_parks_until_recovery(self):
        serving = build_serving(num_gpus=2)
        pinned = serving.add_tenant(
            TenantSpec(
                "pinned",
                rate_limit_rps=2_000.0,
                burst=16,
                deadline_us=1_000_000.0,  # outlives the 180 ms recovery
                device_name="gpu0",
            )
        )
        arrivals = open_loop_arrivals(
            pinned, count=20, seed=77, mean_interarrival_us=2_000.0
        )
        report = serving.run(arrivals, crash_events=[(10_000.0, "gpu0")])
        assert report.audit_exactly_once() == []
        assert len(report.completed) == 20
        assert report.expired == set()
        # Work resumed on gpu0 after recovery: a second worker generation.
        assert report.worker_stats["gpu0"]["generations"] == 2
        latencies = serving.slo.accounts()["pinned"].latencies
        # At least one request waited out the recovery window.
        assert max(latencies) > 100_000.0

    def test_crash_then_expire_settles_exactly_once(self):
        # Regression for the double-release the settle() guard closes:
        # a pinned tenant's requests park during the crash's recovery
        # window, expire there, and must release their queue slot and
        # quota bytes exactly once — the final accounting lands on
        # exactly zero rather than being clamped there.
        serving = build_serving(num_gpus=2)
        serving.add_tenant(
            TenantSpec(
                "pinned",
                rate_limit_rps=2_000.0,
                burst=16,
                deadline_us=50_000.0,  # expires inside the ~180 ms recovery
                device_name="gpu0",
            )
        )
        arrivals = open_loop_arrivals(
            serving.registry.get("pinned"), count=20, seed=77,
            mean_interarrival_us=2_000.0,
        )
        report = serving.run(arrivals, crash_events=[(10_000.0, "gpu0")])
        assert report.audit_exactly_once() == []
        assert len(report.expired) > 0  # the crash actually stranded work
        tenant = serving.registry.get("pinned")
        assert tenant.in_flight == 0
        assert tenant.in_flight_bytes == 0
        assert serving.admission.double_settles == 0

    def test_injected_crash_requeues_without_duplicates(self):
        serving, arrivals = two_tenant_scenario()
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(site="srpc.enqueue", action=CRASH, nth=30, target="gpu0"),),
        )
        with armed(plan, crash_handler=serving.injected_crash):
            report = serving.run(arrivals)
        assert report.crashes == ("gpu0",)
        assert report.audit_exactly_once() == []
        assert report.wrong_results == 0
        requeued = sum(a.requeued for a in serving.slo.accounts().values())
        assert requeued >= 1
