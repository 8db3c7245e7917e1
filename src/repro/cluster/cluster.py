"""A cluster of CRONUS machines with mutual attestation and scheduling.

Each node is a complete, independently booted CRONUS system with its own
virtual clock (machines do not share clocks; cross-node time is composed
per job).  Before any job runs, every node verifies every other node's
platform attestation report — the same client-side protocol of section
IV-A, applied pairwise — so a compromised or fabricated node never joins
the mesh.  Node failures take the whole machine (the cluster analog of a
reboot); the scheduler reassigns its work to surviving attested nodes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.dispatch.client import RemoteClient
from repro.mos.hal import HalError
from repro.secure.monitor import AttestationError
from repro.sim import CostModel
from repro.systems import CronusSystem, TestbedConfig


class ClusterError(Exception):
    """Scheduling failure: no attested capacity, unknown node."""


class ClusterNode:
    """One machine in the cluster."""

    def __init__(self, name: str, *, gpus: int = 1, costs: Optional[CostModel] = None) -> None:
        self.name = name
        self.system = CronusSystem(TestbedConfig(num_gpus=gpus), costs=costs)
        self.gpus = gpus
        self.alive = True
        self.attested = False

    def gpu_devices(self) -> List[str]:
        """The node's GPU device names, sorted (deterministic)."""
        return sorted(
            name
            for name, mos in self.system.moses.items()
            if mos.device_type == "gpu"
        )

    def partition_restarts(self) -> Dict[str, int]:
        """Per-partition restart counters (the mEnclave *generation*):
        how many times each partition's proceed-trap recovery has run.
        The cluster router reads these to see how battered a node is."""
        return {
            p.name: p.restarts
            for p in sorted(self.system.spm.partitions(), key=lambda p: p.name)
        }

    def restarts(self) -> int:
        """Total partition restarts on this node (sum of the counters)."""
        return sum(self.partition_restarts().values())

    def device_certs(self) -> Dict[str, object]:
        return {
            d.name: d.vendor_cert
            for d in self.system.platform.devices()
            if d.vendor_cert is not None and d.device_type != "cpu"
        }

    def fail(self) -> None:
        """The whole machine dies (power/kernel failure)."""
        self.alive = False

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ClusterNode({self.name!r}, {self.gpus} gpus, {state})"


class Cluster:
    """A set of nodes plus the placement/attestation logic."""

    def __init__(
        self,
        num_nodes: int = 2,
        *,
        gpus_per_node: int = 1,
        costs: Optional[CostModel] = None,
    ) -> None:
        if num_nodes < 1:
            raise ClusterError("a cluster needs at least one node")
        self.costs = costs or CostModel()
        self.nodes: List[ClusterNode] = [
            ClusterNode(f"node{i}", gpus=gpus_per_node, costs=costs)
            for i in range(num_nodes)
        ]

    # -- attestation mesh ---------------------------------------------------
    def attest_mesh(self) -> int:
        """Every node verifies every other node's platform report.

        Each verification charges one network round trip on the verifying
        node (report + response).  Returns the number of verifications.
        A node is attested only if it is alive and every live verifier's
        check of it passed; a node whose report fails to verify, or that
        cannot produce one (unendorsed device hardware), is expelled.
        """
        verifications = 0
        rejected = set()
        # One client per target for this mesh only: its anchors check each
        # endorsement once, while every pair's fresh report is verified.
        clients = {
            node.name: RemoteClient.for_system(node.system)
            for node in self.nodes
            if node.alive
        }
        for verifier in self.nodes:
            if not verifier.alive:
                continue
            for target in self.nodes:
                if target is verifier or not target.alive:
                    continue
                client = clients[target.name]
                try:
                    client.verify(target.system.attest_platform(), target.device_certs())
                except (AttestationError, HalError):
                    rejected.add(target.name)
                    continue
                verifier.system.clock.advance(self.costs.network_rtt_us)
                verifications += 1
        for node in self.nodes:
            node.attested = node.alive and node.name not in rejected
        return verifications

    # -- membership / placement ------------------------------------------------
    def __iter__(self) -> Iterator[ClusterNode]:
        """Nodes in creation order — the deterministic iteration order the
        cluster router's same-instant event processing depends on."""
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def attested_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes if n.alive and n.attested]

    def node(self, name: str) -> ClusterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ClusterError(f"no node named {name!r}")

    def node_for(self, name: str) -> Optional[ClusterNode]:
        """`node` without the raise: None for an unknown name (the router's
        lookup — a rid routed to an expelled node must not except)."""
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def restart_counters(self) -> Dict[str, int]:
        """node name -> total partition restarts (dead nodes included)."""
        return {node.name: node.restarts() for node in self.nodes}

    def fail_node(self, name: str) -> None:
        self.node(name).fail()

    def require_capacity(self, nodes_needed: int) -> List[ClusterNode]:
        available = self.attested_nodes()
        if len(available) < nodes_needed:
            raise ClusterError(
                f"need {nodes_needed} attested nodes, only {len(available)} available"
            )
        return available[:nodes_needed]

    # -- cross-node communication cost ------------------------------------------
    def allreduce_time_us(self, gradient_bytes: int, participants: int) -> float:
        """Ring all-reduce across machines: the volume of figure 11b's
        model, but over the *untrusted* network — every byte is encrypted
        and each ring step pays a round trip."""
        if participants <= 1:
            return 0.0
        volume = 2.0 * gradient_bytes * (participants - 1) / participants
        transfer = self.costs.copy_cost_us(int(volume), per_kib=self.costs.network_us_per_kib)
        cipher = 2.0 * self.costs.copy_cost_us(
            int(volume), per_kib=self.costs.encryption_us_per_kib
        )
        rtts = 2.0 * (participants - 1) * self.costs.network_rtt_us
        return transfer + cipher + rtts
