"""The section VII-C distributed extension: mesh attestation, scheduling,
cross-node training, node-failure rescheduling."""

import pytest

from repro.cluster import Cluster, ClusterError, distributed_train
from repro.crypto import CertificateAuthority


class TestClusterMesh:
    def test_mesh_attestation_counts(self):
        cluster = Cluster(num_nodes=3)
        assert cluster.attest_mesh() == 3 * 2  # pairwise, directed
        assert len(cluster.attested_nodes()) == 3

    def test_dead_node_excluded_from_mesh(self):
        cluster = Cluster(num_nodes=3)
        cluster.fail_node("node2")
        assert cluster.attest_mesh() == 2 * 1
        assert len(cluster.attested_nodes()) == 2

    def test_capacity_check(self):
        cluster = Cluster(num_nodes=2)
        cluster.attest_mesh()
        with pytest.raises(ClusterError, match="attested nodes"):
            cluster.require_capacity(3)

    def test_unknown_node(self):
        with pytest.raises(ClusterError, match="no node"):
            Cluster(num_nodes=1).fail_node("node9")

    def test_attestation_charges_network_time(self):
        cluster = Cluster(num_nodes=2)
        before = [n.system.clock.now for n in cluster.nodes]
        cluster.attest_mesh()
        after = [n.system.clock.now for n in cluster.nodes]
        assert all(b < a for b, a in zip(before, after))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(num_nodes=0)

    def test_node_failing_verification_stays_expelled(self):
        """node2 presents its peers a gpu0 endorsement signed by a rogue CA
        posing as the vendor: both peers reject it, and the mesh must not
        re-admit node2 afterwards."""
        cluster = Cluster(num_nodes=3)
        node2 = cluster.node("node2")
        honest = node2.device_certs()["gpu0"]
        rogue = CertificateAuthority(honest.issuer_name, b"rogue-ca-seed")
        forged = rogue.endorse("gpu0", honest.subject)
        node2.device_certs = lambda: {"gpu0": forged}
        assert cluster.attest_mesh() == 3 * 2 - 2
        assert [n.name for n in cluster.attested_nodes()] == ["node0", "node1"]

    def test_unendorsed_device_expels_its_node(self):
        """node2's own gpu0 carries a rogue endorsement, so node2 cannot
        produce a platform report (HalError): node2 is expelled and the rest
        of the mesh still attests."""
        cluster = Cluster(num_nodes=3)
        device = cluster.node("node2").system.platform.device("gpu0")
        rogue = CertificateAuthority(device.vendor_cert.issuer_name, b"rogue-ca-seed")
        device.vendor_cert = rogue.endorse("gpu0", device.public_key)
        # node0 and node1 verify each other; node2 still verifies both.
        assert cluster.attest_mesh() == 3 * 2 - 2
        assert [n.name for n in cluster.attested_nodes()] == ["node0", "node1"]

    @pytest.mark.parametrize(
        "dead, verifications, clocks",
        [
            ((), 6, [540400.0, 540400.0, 540400.0]),
            (("node1",), 2, [540200.0, 540000.0, 540200.0]),
        ],
    )
    def test_honest_mesh_counts_and_clocks_pinned(self, dead, verifications, clocks):
        """Verification counts and simulated clocks of an honest mesh, as
        recorded before the expulsion fix; a dead node is not attested."""
        cluster = Cluster(num_nodes=3)
        for name in dead:
            cluster.fail_node(name)
        assert cluster.attest_mesh() == verifications
        assert [n.system.clock.now for n in cluster] == clocks
        assert [n.attested for n in cluster] == [n.name not in dead for n in cluster]


MESH_8X2_VERIFIES = {
    # Every ordered pair's fresh report signature: 8 * 7.
    "AtK": 56,
    # One client per target: its anchors check each endorsement once.
    "ca:attestation-service": 8,
    # 8 HAL proofs of the GPUs (16) + 8 targets' two GPU endorsements (16).
    "ca:nvidia": 32,
    # 8 HAL proofs of the NPU + 8 targets' NPU endorsement.
    "ca:vta": 16,
    # One key-ownership proof per device and configuration epoch.
    "dev:gpu0": 8,
    "dev:gpu1": 8,
    "dev:npu0": 8,
}


class TestMeshVerifyCounts:
    def test_8x2_mesh_checks_each_fact_once(self, verify_calls):
        """136 Schnorr verifies, not a full chain per ordered pair (616):
        every pair's report signature is still checked.  A second fresh
        cluster in the same process pays in full again: no memo is shared
        between clusters."""
        for _ in range(2):
            verify_calls.clear()
            assert Cluster(8, gpus_per_node=2).attest_mesh() == 56
            assert verify_calls == MESH_8X2_VERIFIES
            assert sum(verify_calls.values()) == 136

    def test_second_mesh_on_the_same_cluster_rechecks_certificates(self, verify_calls):
        """The HAL proofs hold until a device's configuration changes; the
        certificate memo dies with its mesh, and every report is checked."""
        cluster = Cluster(3)
        cluster.attest_mesh()
        verify_calls.clear()
        assert cluster.attest_mesh() == 6
        assert verify_calls == {
            "AtK": 6, "ca:attestation-service": 3, "ca:nvidia": 3, "ca:vta": 3,
        }


class TestClusterMembership:
    def test_iteration_is_creation_order(self):
        cluster = Cluster(num_nodes=4)
        assert [n.name for n in cluster] == ["node0", "node1", "node2", "node3"]
        assert len(cluster) == 4

    def test_iteration_order_survives_node_death(self):
        """The router's same-instant event processing depends on a stable
        order; a dead node keeps its slot."""
        cluster = Cluster(num_nodes=3)
        cluster.fail_node("node1")
        assert [n.name for n in cluster] == ["node0", "node1", "node2"]

    def test_node_for_lookup(self):
        cluster = Cluster(num_nodes=2)
        assert cluster.node_for("node1") is cluster.nodes[1]
        assert cluster.node_for("node9") is None

    def test_gpu_devices_sorted(self):
        node = Cluster(num_nodes=1, gpus_per_node=3).nodes[0]
        assert node.gpu_devices() == ["gpu0", "gpu1", "gpu2"]

    def test_restart_counters_track_partition_recoveries(self):
        cluster = Cluster(num_nodes=2, gpus_per_node=2)
        assert cluster.restart_counters() == {"node0": 0, "node1": 0}
        node = cluster.node("node0")
        node.system.fail_partition("gpu1")
        assert node.partition_restarts()["part-gpu1"] == 1
        assert node.restarts() == 1
        assert cluster.restart_counters() == {"node0": 1, "node1": 0}

    def test_restart_counters_include_dead_nodes(self):
        cluster = Cluster(num_nodes=2)
        cluster.node("node1").system.fail_partition("gpu0")
        cluster.fail_node("node1")
        assert cluster.restart_counters()["node1"] == 1


class TestAllreduceCost:
    def test_single_node_free(self):
        assert Cluster(num_nodes=1).allreduce_time_us(1 << 20, 1) == 0.0

    def test_network_costs_more_than_intra_machine(self):
        """Locality matters: cross-node exchange (encrypted network) is far
        more expensive than intra-machine PCIe P2P for the same volume."""
        from repro.sim.costs import CostModel
        from repro.workloads.distributed import comm_time_us

        cluster = Cluster(num_nodes=2)
        volume = 1 << 20
        cross = cluster.allreduce_time_us(volume, 2)
        intra = comm_time_us(CostModel(), volume, 2, "p2p")
        assert cross > 10 * intra

    def test_grows_with_participants(self):
        cluster = Cluster(num_nodes=4)
        assert cluster.allreduce_time_us(1 << 20, 4) > cluster.allreduce_time_us(1 << 20, 2)


class TestDistributedTraining:
    def test_scaling_reduces_time(self):
        times = {}
        for n in (1, 2):
            cluster = Cluster(num_nodes=2)
            times[n] = distributed_train(cluster, nodes=n, total_samples=64).total_time_us
        assert times[2] < times[1]

    def test_node_failure_rescheduled(self):
        cluster = Cluster(num_nodes=2)
        result = distributed_train(
            cluster, nodes=2, total_samples=96, fail_node_at_step=1
        )
        assert result.reschedules == 1
        # The job still finished (survivor processed the remaining shards).
        assert result.steps >= 3
        assert not cluster.node("node1").alive

    def test_all_nodes_failing_loses_job(self):
        cluster = Cluster(num_nodes=1)
        cluster.attest_mesh()
        with pytest.raises(ClusterError, match="all nodes failed|attested nodes"):
            cluster.fail_node("node0")
            distributed_train(cluster, nodes=1, total_samples=32)

    def test_losses_finite_and_steps_counted(self):
        cluster = Cluster(num_nodes=2)
        result = distributed_train(cluster, nodes=2, total_samples=64)
        import numpy as np

        assert np.isfinite(result.final_loss)
        assert result.steps == 2  # 64 samples / (16 batch * 2 nodes)
        assert result.comm_time_us > 0
