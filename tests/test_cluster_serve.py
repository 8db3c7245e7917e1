"""Sharded cluster serving: rendezvous routing, work stealing, node-kill
checkpoint migration, and byte-identical replay."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterServingSystem,
    ClusterRouter,
    ImageError,
    ImageRegistry,
    rendezvous_score,
    request_image,
)
from repro.gateway import Gateway
from repro.serve.admission import Request
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model


def small_trace(requests=400, tenants=8, rate=60_000.0, deadline=80_000.0):
    profile = LoadProfile(
        tenants=tenants,
        requests=requests,
        mean_rate_rps=rate,
        deadline_us=deadline,
    )
    return generate_trace(profile)


def build(nodes=2, *, gpus=1, **kwargs):
    cluster = Cluster(num_nodes=nodes, gpus_per_node=gpus)
    kwargs.setdefault("service_model", synthetic_service_model())
    return ClusterServingSystem(cluster, **kwargs)


class TestRouter:
    def test_rendezvous_score_is_pure(self):
        assert rendezvous_score("t", "node0") == rendezvous_score("t", "node0")
        assert rendezvous_score("t", "node0") != rendezvous_score("t", "node1")

    def test_home_is_deterministic_and_sticky(self):
        router = ClusterRouter(ImageRegistry())
        nodes = ["node0", "node1", "node2"]
        homes = {f"tenant-{i}": router.home(f"tenant-{i}", nodes) for i in range(50)}
        assert homes == {
            key: router.home(key, nodes) for key in homes
        }
        assert len(set(homes.values())) > 1  # keys spread over the nodes

    def test_node_death_moves_only_orphans(self):
        """HRW's minimal-movement property: keys not homed on the dead
        node keep their home."""
        router = ClusterRouter(ImageRegistry())
        nodes = ["node0", "node1", "node2"]
        before = {f"t{i}": router.home(f"t{i}", nodes) for i in range(80)}
        survivors = [n for n in nodes if n != "node1"]
        for key, home in before.items():
            if home != "node1":
                assert router.home(key, survivors) == home

    def test_steal_over_threshold(self):
        router = ClusterRouter(ImageRegistry(), steal_threshold=10)
        nodes = ["node0", "node1"]
        key = "tenant-x"
        home = router.home(key, nodes)
        other = "node1" if home == "node0" else "node0"
        loads = {home: 0, other: 5}
        assert router.route(key, nodes, [loads[n] for n in nodes]) == home
        loads = {home: 100, other: 5}
        assert router.route(key, nodes, [loads[n] for n in nodes]) == other
        assert router.steals == 1

    def test_request_image(self):
        request = Request("t", "t-0", 0.0, 1e6)
        assert request_image(request) == "kernel:matmul"


class TestImageRegistry:
    def test_register_and_lookup(self):
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0", "node1"])
        assert images.holds("kernel:matmul", "node0")
        assert images.nodes_for("kernel:matmul") == ["node0", "node1"]
        assert images.images_on("node1") == ["kernel:matmul"]

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ImageError):
            ImageRegistry().register("kernel:matmul", [])

    def test_drop_node_may_drain_replicas(self):
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0"])
        images.drop_node("node0")
        assert images.nodes_for("kernel:matmul") == []


class TestClusterServing:
    def test_basic_run_audits_clean(self):
        specs, requests = small_trace()
        serving = build(2)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.audit_exactly_once() == []
        assert report.completed_total + report.expired_total > 0
        assert sum(report.routed.values()) == len(requests)

    def test_tenant_sharding_is_sticky(self):
        """Without stealing pressure every tenant's requests land on its
        rendezvous home node."""
        specs, requests = small_trace()
        serving = build(3, steal_threshold=10_000)
        serving.add_tenants(specs)
        serving.run(requests)
        assert serving.router.steals == 0
        for ns in serving._states.values():
            # every rid admitted on a node belongs to a tenant homed there
            for rid in ns.serving.ledger.admitted:
                tenant = rid.rsplit("-", 1)[0]
                home = serving.router.home(
                    tenant, sorted(serving._states)
                )
                assert home == ns.name

    def test_stealing_relieves_hot_home(self):
        """All load on one tenant: with a tiny threshold the cold node
        must steal some of the whale's traffic."""
        specs, requests = small_trace(requests=600, tenants=1, rate=200_000.0)
        serving = build(2, steal_threshold=4)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.steals > 0
        assert all(count > 0 for count in report.routed.values())
        assert report.audit_exactly_once() == []

    def test_unroutable_without_image(self):
        images = ImageRegistry()
        images.register("kernel:other", ["node0"])
        serving = build(2, images=images)
        specs, requests = small_trace(requests=10)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.unroutable == len(requests)
        assert report.completed_total == 0

    def test_replay_fingerprint_identical(self):
        specs, requests = small_trace()
        reports = []
        for _ in range(2):
            serving = build(2)
            serving.add_tenants(specs)
            reports.append(serving.run(requests))
        assert reports[0].fingerprint == reports[1].fingerprint
        assert reports[0].slo_text == reports[1].slo_text


class TestNodeKillMigration:
    def run_kill(self, nodes=3, kill_at=1_500.0):
        specs, requests = small_trace(requests=500, rate=150_000.0)
        serving = build(nodes)
        serving.add_tenants(specs)
        report = serving.run(requests, node_kill_events=[(kill_at, "node1")])
        return serving, report

    def test_migrated_requests_complete_exactly_once(self):
        serving, report = self.run_kill()
        assert report.node_kills == ((1_500.0, "node1"),)
        assert report.migrated_requests > 0
        assert report.orphaned == 0
        assert report.audit_exactly_once() == []

    def test_corpse_pages_scrubbed_and_audited(self):
        serving, report = self.run_kill()
        assert report.scrub_pages_audited > 0
        assert report.scrub_violations == 0

    def test_sessions_restore_with_incremented_generation(self):
        serving, report = self.run_kill()
        assert report.migrations  # at least one checkpoint-restore ran
        for record in report.migrations:
            assert record.source == "node1"
            assert record.target != "node1"
            assert record.generation >= 1
            session = serving.migration.session(record.tenant)
            assert session is not None
            assert session.node == record.target
        assert report.restore_mismatches == 0

    def test_dead_node_unroutable_afterwards(self):
        serving, _ = self.run_kill()
        late = Request("scale-00000", "scale-00000-late", 1e7, 2e7)
        # node1 lost its image replicas; survivors still serve.
        target = serving.route(late)
        assert target in ("node0", "node2")

    def test_kill_replay_byte_identical(self):
        reports = [self.run_kill()[1] for _ in range(2)]
        assert reports[0].fingerprint == reports[1].fingerprint

    def test_killing_all_nodes_orphans_backlog(self):
        specs, requests = small_trace(requests=200, rate=150_000.0)
        serving = build(2)
        serving.add_tenants(specs)
        report = serving.run(
            requests, node_kill_events=[(500.0, "node0"), (500.0, "node1")]
        )
        # whatever was in flight on the last corpse had nowhere to go
        assert report.orphaned >= 0
        if report.orphaned:
            assert report.audit_exactly_once() != []

    def test_node_table_marks_corpse(self):
        _, report = self.run_kill()
        table = report.node_table()
        assert "dead" in table
        assert "node1" in table


class TestCandidateCache:
    """Every registry change and every kill shows in the next
    ``candidates()``, ``route()`` and gateway ``route_fn`` after routing
    has filled the candidate cache and the HRW memo."""

    IMAGE = "kernel:matmul"
    LATE = Request("scale-00000", "scale-00000-late", 1e7, 2e7)

    def routed(self):
        specs, requests = small_trace(requests=100)
        serving = build(3, steal_threshold=10_000)
        serving.add_tenants(specs)
        serving.run(requests)
        gateway = Gateway(serving)
        spec = gateway.registry.get("matmul")
        # Warm both routing paths before the change under test.
        assert tuple(serving.candidates(self.IMAGE)) == ("node0", "node1", "node2")
        serving.route(self.LATE)
        gateway.route_fn(spec, "key")
        return serving, gateway, spec

    def expect(self, serving, gateway, spec, nodes):
        assert tuple(serving.candidates(self.IMAGE)) == nodes
        assert serving.route(self.LATE) == serving.router.home(self.LATE.tenant, nodes)
        assert gateway.route_fn(spec, "key") == serving.router.home("key", nodes)

    def test_register_narrows(self):
        serving, gateway, spec = self.routed()
        for node in ("node0", "node1", "node2"):
            gateway.place_image(self.IMAGE, [node])
            gateway.place_image(spec.image_id, [node])
            self.expect(serving, gateway, spec, (node,))

    def test_register_widens(self):
        serving, gateway, spec = self.routed()
        for image in (self.IMAGE, spec.image_id):
            gateway.place_image(image, ["node1"])
        self.expect(serving, gateway, spec, ("node1",))
        for image in (self.IMAGE, spec.image_id):
            gateway.place_image(image, ["node0", "node1", "node2"])
        self.expect(serving, gateway, spec, ("node0", "node1", "node2"))

    def test_drop_node(self):
        serving, gateway, spec = self.routed()
        home = serving.route(self.LATE)
        serving.images.drop_node(home)
        rest = tuple(n for n in ("node0", "node1", "node2") if n != home)
        self.expect(serving, gateway, spec, rest)

    def test_kill(self):
        serving, gateway, spec = self.routed()
        home = serving.route(self.LATE)
        serving.kill_node(home)
        rest = tuple(n for n in ("node0", "node1", "node2") if n != home)
        self.expect(serving, gateway, spec, rest)


class TestImageAwareMigration:
    """A node kill restores sessions and re-delivers work only onto nodes
    that hold the request's image (``kernel:matmul`` on node0/node1)."""

    def run_kill(self, kills):
        specs, requests = generate_trace(LoadProfile(seed=3, requests=400))
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0", "node1"])
        serving = build(3, images=images)
        serving.add_tenants(specs)
        kill_at = requests[len(requests) // 2].arrival_us
        return serving.run(
            requests,
            node_kill_events=[(kill_at + offset, node) for offset, node in kills],
        )

    def test_restore_targets_hold_the_image(self):
        report = self.run_kill([(0.0, "node0")])
        assert report.migrations
        assert {record.target for record in report.migrations} == {"node1"}
        assert not report.per_node["node2"].admitted
        assert report.orphaned == 0
        assert report.audit_exactly_once() == []

    def test_in_transit_reroute_needs_a_holder(self):
        """The restore target dies while the blobs are in flight; the only
        other alive node lacks the image, so the work is orphaned."""
        report = self.run_kill([(0.0, "node0"), (10.0, "node1")])
        assert report.orphaned > 0
        assert not report.per_node["node2"].admitted


class TestBacklog:
    def test_backlog_is_the_effective_depth_sum(self):
        """The one-pass backlog the router reads (cached until the node is
        touched or its next completion passes) equals the placer's
        per-device depths, at every routing decision."""
        checked = []

        class Checked(ClusterServingSystem):
            def route(self, request):
                target = super().route(request)
                for ns in self.alive_nodes():
                    sv = ns.serving
                    sv.advance(self._now)
                    fresh = len(sv._parked) + sum(
                        sv._effective_depth(d) for d in sv._gpus
                    )
                    assert sv.backlog() == fresh
                    if ns.backlog_until > self._now:
                        assert ns.backlog == fresh
                        checked.append(fresh)
                return target

        specs, requests = small_trace(requests=600, rate=400_000.0)
        serving = Checked(
            Cluster(num_nodes=3, gpus_per_node=2),
            service_model=synthetic_service_model(),
            steal_threshold=4,
        )
        serving.add_tenants(specs)
        report = serving.run(
            requests,
            node_kill_events=[(600.0, "node1")],
            crash_events=[(900.0, "node2", "gpu0")],
        )
        assert report.steals > 0
        assert any(checked)


class TestOneNodeMetamorphic:
    """A one-node cluster without migration is the single-node engine
    behind a router with one candidate: on the same trace both render
    byte-equal SLO tables, the node's own and the merged one."""

    @pytest.mark.parametrize("crash", [False, True], ids=["no-crash", "gpu0-crash"])
    def test_one_node_cluster_matches_standalone_engine(self, crash):
        from repro.serve.frontend import ServingSystem
        from repro.systems import CronusSystem, TestbedConfig

        specs, requests = small_trace(requests=300)
        crash_at = requests[len(requests) // 2].arrival_us
        serving = build(1, gpus=2, migration=False)
        serving.add_tenants(specs)
        clustered = serving.run(
            requests, crash_events=[(crash_at, "node0", "gpu0")] if crash else ()
        )
        alone = ServingSystem(
            CronusSystem(TestbedConfig(num_gpus=2)),
            service_model=synthetic_service_model(),
        )
        for spec in specs:
            alone.add_tenant(spec)
        standalone = alone.run(
            requests, crash_events=[(crash_at, "gpu0")] if crash else ()
        )
        assert clustered.per_node["node0"].slo_text == standalone.slo_text
        assert clustered.slo_text == standalone.slo_text
        assert standalone.completed
