"""Sharded cluster serving: N per-node frontends, one virtual timeline.

The section VII-C extension lifted to the serving layer: every
:class:`~repro.cluster.cluster.ClusterNode` runs its own complete
single-node :class:`~repro.serve.frontend.ServingSystem` (its own
admission controller, batcher, placer, SLO tracker — per-node admission
is the sharding story), and the :class:`ClusterServingSystem` drives
them through their public node interface on **one shared virtual
timeline**, on the single-node engine's event core
(:mod:`repro.sim.events`).  Event phases at one instant follow the fixed
order tabled in ``docs/serving.md`` over the cluster's deterministic
node iteration order, so a cluster run replays byte-identically.

Routing: each tenant has a **home node** by rendezvous (highest-random-
weight) hashing over the *alive nodes holding the request's enclave
image* (:mod:`repro.cluster.images`) — minimal movement when a node
dies, no coordination state.  When the home's backlog (pending + not-yet-
finished flushed work + parked) exceeds the cluster minimum by
``steal_threshold``, the request is **stolen** by the least-backlogged
candidate (cross-node placement scoring; ties break by node name).

Node-crash failover: a node kill harvests every admitted-but-unfinished
request on the corpse, fails its partitions (the SPM panic scrub runs),
**byte-audits** the migrated tenants' session pages as zero, then drives
:class:`~repro.cluster.migrate.MigrationManager` checkpoint/restore onto
surviving nodes; the harvested requests are re-delivered to the restore
target after the sealed blob's simulated network transfer.  The
cluster-level exactly-once audit closes over *all* nodes, so a migrated
rid completing on two machines, or on none, is a reported violation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster, ClusterError, ClusterNode
from repro.cluster.images import ImageRegistry
from repro.cluster.migrate import MigrationManager, MigrationRecord
from repro.metrics.report import format_table
from repro.serve.admission import Request
from repro.serve.frontend import ServingReport, ServingSystem
from repro.serve.slo import SLOTracker
from repro.serve.tenants import TenantSpec
from repro.sim.events import Cursor, Phase, drive

_ARRIVAL_ORDER = attrgetter("arrival_us", "rid")
_ARRIVAL_US = attrgetter("arrival_us")
_AT = itemgetter(0)

#: Rejection recorded when no alive node holds the request's image.
REJECT_NO_IMAGE = "no-image-replica"


def request_image(request: Request) -> str:
    """The enclave image a serving request needs (``kernel:<kind>``)."""
    return f"kernel:{request.kind}"


def rendezvous_score(key: str, node: str) -> int:
    """Deterministic HRW weight of ``key`` on ``node``."""
    digest = hashlib.sha256(f"{key}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class NodeState:
    """One node's serving frontend plus its cluster-side bookkeeping."""

    __slots__ = ("node", "name", "serving", "alive", "routed")

    def __init__(self, node: ClusterNode, serving: ServingSystem) -> None:
        self.node = node
        self.name = node.name
        self.serving = serving
        self.alive = True
        self.routed = 0


class ClusterRouter:
    """Rendezvous sharding + backlog-threshold work stealing."""

    def __init__(self, images: ImageRegistry, *, steal_threshold: int = 64) -> None:
        self.images = images
        self.steal_threshold = steal_threshold
        self.steals = 0

    def home(self, key: str, candidates: Sequence[str]) -> str:
        """The HRW winner among ``candidates`` (must be non-empty)."""
        return max(candidates, key=lambda n: (rendezvous_score(key, n), n))

    def route(
        self, key: str, candidates: Sequence[str], backlog: Dict[str, int]
    ) -> str:
        """Home node, unless its backlog is ``steal_threshold`` over the
        least-loaded candidate — then the least-loaded candidate steals
        (ties break by name: ``backlog`` keys iterate sorted)."""
        home = self.home(key, candidates)
        if len(candidates) == 1:
            return home
        coolest = min(candidates, key=lambda n: (backlog[n], n))
        if backlog[home] - backlog[coolest] > self.steal_threshold:
            self.steals += 1
            return coolest
        return home


@dataclass
class ClusterReport:
    """Outcome of one :meth:`ClusterServingSystem.run`."""

    node_names: Tuple[str, ...]
    slo_text: str
    """The cluster-merged per-tenant SLO table."""
    fingerprint: str
    """sha256 over the merged SLO table, the routing digest, the steal
    count, every node's own fingerprint and the kill/migration logs —
    byte-identical across replays of the same trace."""
    makespan_us: float
    per_node: Dict[str, ServingReport]
    routed: Dict[str, int]
    steals: int
    unroutable: int
    node_kills: Tuple[Tuple[float, str], ...]
    migrations: Tuple[MigrationRecord, ...]
    migrated_requests: int
    orphaned: int
    scrub_pages_audited: int
    scrub_violations: int
    restore_mismatches: int
    completed_total: int = 0
    deadline_met_total: int = 0
    expired_total: int = 0
    rejected_total: int = 0
    restart_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Deadline-met completions per simulated second of makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return self.deadline_met_total / (self.makespan_us / 1e6)

    def audit_exactly_once(self) -> List[str]:
        """The cluster-wide exactly-once audit: every admitted rid reaches
        exactly one terminal state on exactly one node."""
        problems: List[str] = []
        admitted: Set[str] = set()
        expired: Set[str] = set()
        rejected_after: Set[str] = set()
        completed_on: Dict[str, List[str]] = {}
        duplicates_avoided = 0
        for name in self.node_names:
            rep = self.per_node[name]
            admitted |= rep.admitted
            expired |= rep.expired
            rejected_after |= rep.rejected_after_admit
            duplicates_avoided += rep.duplicates_avoided
            for rid in rep.completed:
                completed_on.setdefault(rid, []).append(name)
        completed = set(completed_on)
        for rid in sorted(completed_on):
            nodes = completed_on[rid]
            if len(nodes) > 1:
                problems.append(f"{rid}: completed on {len(nodes)} nodes {nodes}")
        for rid in sorted(completed & expired):
            problems.append(f"{rid}: both completed and expired")
        terminal = completed | expired | rejected_after
        lost = admitted - terminal
        if self.orphaned:
            problems.append(f"{self.orphaned} migrated request(s) orphaned")
        for rid in sorted(lost):
            problems.append(f"{rid}: admitted but never completed nor expired")
        for rid in sorted(completed - admitted):
            problems.append(f"{rid}: completed without admission")
        if duplicates_avoided:
            problems.append(
                f"{duplicates_avoided} completed request(s) were re-queued"
            )
        return problems

    def node_table(self) -> str:
        """A per-node summary table (the CLI's scale view)."""
        rows = []
        for name in self.node_names:
            rep = self.per_node[name]
            rows.append([
                name,
                "dead" if any(n == name for _, n in self.node_kills) else "alive",
                self.routed.get(name, 0),
                len(rep.admitted),
                len(rep.completed),
                len(rep.expired),
                self.restart_counters.get(name, 0),
                f"{rep.makespan_us:.1f}",
            ])
        return format_table(
            ["node", "state", "routed", "admitted", "completed", "expired",
             "restarts", "makespan_us"],
            rows,
        )


class ClusterServingSystem:
    """The sharded multi-node serving frontend."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        max_batch: int = 8,
        max_delay_us: float = 2_000.0,
        kernels: Tuple[str, ...] = ("matmul",),
        service_model=None,
        images: Optional[ImageRegistry] = None,
        steal_threshold: int = 64,
        migration: bool = True,
        telemetry: Optional[object] = None,
    ) -> None:
        self.cluster = cluster
        self.telemetry = telemetry
        if not all(n.attested for n in cluster if n.alive):
            cluster.attest_mesh()
        members = cluster.attested_nodes()
        if not members:
            raise ClusterError("no attested alive nodes to serve on")
        self.images = images if images is not None else ImageRegistry()
        if images is None:
            for kind in kernels:
                self.images.register(f"kernel:{kind}", [n.name for n in members])
        self.router = ClusterRouter(self.images, steal_threshold=steal_threshold)
        self.migration: Optional[MigrationManager] = (
            MigrationManager() if migration else None
        )
        self._states: Dict[str, NodeState] = {}
        """Member node states, in ``Cluster`` iteration order."""
        for node in members:
            serving = ServingSystem(
                node.system,
                max_batch=max_batch,
                max_delay_us=max_delay_us,
                kernels=kernels,
                service_model=service_model,
            )
            if telemetry is not None:
                # Per-node attach: every scraped key carries node=<name>,
                # and the node's completion paths feed its tail sampler.
                source = telemetry.attach(
                    node.system, slo=serving.slo, node=node.name
                )
                serving.bind_telemetry(source)
            self._states[node.name] = NodeState(node, serving)
        if telemetry is not None:
            telemetry.add_extra(self._telemetry_extra)
        self._now = 0.0
        self._routing_digest = hashlib.sha256()
        self.unroutable = 0
        self.node_kills: List[Tuple[float, str]] = []
        self.migrated_requests = 0
        self.orphaned = 0
        self._pending_migrations: List[Tuple[float, int, str, Request]] = []
        self._migration_seq = 0

    # -- membership --------------------------------------------------------
    def alive_nodes(self) -> List[NodeState]:
        """Alive node states, cluster iteration order (deterministic)."""
        return [ns for ns in self._states.values() if ns.alive]

    def node_state(self, name: str) -> NodeState:
        return self._states[name]

    def candidates(self, image: str) -> List[str]:
        """Alive member nodes holding ``image``, in the registry's order."""
        return [
            name for name in self.images.nodes_for(image)
            if name in self._states and self._states[name].alive
        ]

    # -- tenants -----------------------------------------------------------
    def add_tenants(self, specs: Iterable[TenantSpec]) -> None:
        """Register every spec on every node (per-node admission state)."""
        for spec in specs:
            for ns in self.alive_nodes():
                ns.serving.add_tenant(spec)

    # -- telemetry ---------------------------------------------------------
    def _telemetry_extra(self) -> Dict[str, float]:
        """Deployment-level cumulative counters (no single node owns
        them) scraped alongside the per-node registries."""
        migration = self.migration
        return {
            "cluster/scrub_violations": float(
                migration.scrub_violations if migration is not None else 0
            ),
            "cluster/restore_mismatches": float(
                migration.restore_mismatches if migration is not None else 0
            ),
            "cluster/migrated_requests": float(self.migrated_requests),
            "cluster/orphaned": float(self.orphaned),
            "cluster/steals": float(self.router.steals),
            "cluster/unroutable": float(self.unroutable),
        }

    # -- routing -----------------------------------------------------------
    def route(self, request: Request) -> Optional[str]:
        """The node this request lands on, or None if unroutable."""
        candidates = self.candidates(request_image(request))
        if not candidates:
            return None
        backlog = {
            name: self._states[name].serving.backlog() for name in sorted(candidates)
        }
        return self.router.route(request.tenant, candidates, backlog)

    def offer(self, request: Request) -> Optional[str]:
        """Route + offer one request at its arrival instant; returns the
        serving node's name (None = no image replica alive)."""
        target = self.route(request)
        if target is None:
            self.unroutable += 1
            self._routing_digest.update(f"{request.rid}>!\n".encode())
            return None
        ns = self._states[target]
        if self.migration is not None:
            self.migration.ensure_session(ns.node, request.tenant)
        ns.routed += 1
        self._routing_digest.update(f"{request.rid}>{target}\n".encode())
        ns.serving.offer(request)
        return target

    # -- node-crash failover -----------------------------------------------
    def migration_delay_us(self, blob_bytes: int) -> float:
        """Simulated cost of moving one sealed checkpoint between nodes:
        a network round trip plus the blob's transfer over the untrusted
        network plus seal/unseal at both ends (see ``docs/costmodel.md``)."""
        costs = self.cluster.costs
        transfer = costs.copy_cost_us(blob_bytes, per_kib=costs.network_us_per_kib)
        cipher = 2.0 * costs.copy_cost_us(blob_bytes, per_kib=costs.encryption_us_per_kib)
        return costs.network_rtt_us + transfer + cipher

    def kill_node(self, name: str) -> List[Request]:
        """A whole machine dies at the current instant.

        Harvests every admitted-but-unfinished request, scrubs + audits
        the corpse, checkpoint-restores in-flight tenants' sessions onto
        surviving nodes and schedules the harvested requests for delivery
        there after the migration transfer delay.  Returns the harvested
        requests (primarily for tests)."""
        ns = self._states.get(name)
        if ns is None or not ns.alive:
            return []
        # The machine analog of the partition panic: every partition
        # fails, and the SPM scrub runs on the way down.
        unfinished = ns.serving.harvest()
        if self.migration is not None:
            self.migration.audit_scrub(ns.node)
        ns.alive = False
        ns.node.fail()
        self.images.drop_node(name)
        self.node_kills.append((self._now, name))
        obs = ns.node.system.platform.obs
        if obs.enabled:
            # One marker on the corpse's own recorder so the recovery
            # trace attached to the node-death page is never empty, even
            # when every partition was already mid-recovery.
            obs.event(
                "recovery.node-kill", ts=self._now, category="recovery",
                node=name, harvested=len(unfinished),
            )
        survivors = self.alive_nodes()
        if not survivors:
            self.orphaned += len(unfinished)
            if self.telemetry is not None:
                self.telemetry.node_killed(self._now, name)
            return unfinished
        survivor_names = [s.name for s in survivors]
        by_tenant: Dict[str, List[Request]] = {}
        for request in unfinished:
            by_tenant.setdefault(request.tenant, []).append(request)
        for tenant in sorted(by_tenant):
            target_name = self.router.home(tenant, survivor_names)
            delay = self.cluster.costs.network_rtt_us
            if self.migration is not None:
                session = self.migration.session(tenant)
                if session is not None and session.node == name:
                    # The tenant's enclave state was on the corpse:
                    # checkpoint-restore onto the rendezvous survivor.
                    self.migration.restore(
                        self._states[target_name].node, tenant, self._now
                    )
                    delay = self.migration_delay_us(
                        self.migration.blob_bytes(tenant)
                    )
            for request in by_tenant[tenant]:
                self._migration_seq += 1
                heapq.heappush(
                    self._pending_migrations,
                    (self._now + delay, self._migration_seq, target_name, request),
                )
        if self.migration is not None:
            # Sessions of idle tenants died with the node; a later arrival
            # re-creates them (their sealed checkpoints remain in the store).
            for session in self.migration.sessions_on(name):
                self.migration.drop_session(session.tenant)
        if self.telemetry is not None:
            # After the restores: the captured recovery trace then covers
            # the corpse's scrub spans up to the migration hand-off.
            self.telemetry.node_killed(self._now, name)
        return unfinished

    def _deliver_migrations(self, now: float) -> None:
        heap = self._pending_migrations
        while heap and heap[0][0] <= self._now:
            _, _, target_name, request = heapq.heappop(heap)
            ns = self._states.get(target_name)
            if ns is None or not ns.alive:
                # The restore target died in transit: re-route among the
                # remaining survivors (no further delay — the blob is
                # already off the first corpse).
                survivors = self.alive_nodes()
                if not survivors:
                    self.orphaned += 1
                    continue
                ns = self._states[
                    self.router.home(request.tenant, [s.name for s in survivors])
                ]
            self.migrated_requests += 1
            ns.serving.adopt(request)

    # -- the cluster event loop --------------------------------------------
    def run(
        self,
        arrivals: Iterable[Request],
        *,
        node_kill_events: Sequence[Tuple[float, str]] = (),
        crash_events: Sequence[Tuple[float, str, str]] = (),
    ) -> ClusterReport:
        """Serve an open-loop arrival stream across the cluster.

        ``node_kill_events`` is a list of ``(time_us, node)`` machine
        deaths; ``crash_events`` a list of ``(time_us, node, device)``
        single-partition crashes (the figure-9 scenario on a named node).
        """
        phases = (
            Phase(self._next_node_event, self._advance_nodes),
            Phase(self._next_migration, self._deliver_migrations),
            Cursor(sorted(arrivals, key=_ARRIVAL_ORDER), _ARRIVAL_US, self.offer),
            Cursor(
                sorted(node_kill_events), _AT, lambda event: self.kill_node(event[1])
            ),
            Cursor(sorted(crash_events), _AT, self._crash_partition),
            Phase(None, self._flush_nodes),
        )
        drive(phases, self.telemetry, self._now)
        # Stream over: anything still parked on an alive node can never
        # run (same backstop as the single-node loop).
        for ns in self.alive_nodes():
            ns.serving.expire_parked()
        if self.telemetry is not None:
            self.telemetry.scrape(self._now)
        return self.report()

    def _next_node_event(self) -> Optional[float]:
        t: Optional[float] = None
        for ns in self.alive_nodes():
            node_t = ns.serving.next_event_time()
            if node_t is not None and (t is None or node_t < t):
                t = node_t
        return t

    def _next_migration(self) -> Optional[float]:
        heap = self._pending_migrations
        return heap[0][0] if heap else None

    def _advance_nodes(self, now: float) -> None:
        self._now = now
        for ns in self.alive_nodes():
            ns.serving.advance(now)

    def _crash_partition(self, event: Tuple[float, str, str]) -> None:
        _, node, device = event
        ns = self._states.get(node)
        if ns is not None and ns.alive:
            ns.serving.crash_partition(device)

    def _flush_nodes(self, now: float) -> None:
        for ns in self.alive_nodes():
            ns.serving.flush_due(now)

    # -- reporting ---------------------------------------------------------
    def cluster_metrics(self):
        """Merge every node's instruments into one registry, each layer
        prefixed ``node=<name>:`` so same-named per-node instruments
        (``part-gpu0``, ``spm``, ``tracer`` …) never collide."""
        from repro.obs import collect_system_metrics
        from repro.obs.metric import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        for name, ns in self._states.items():
            collect_system_metrics(ns.node.system, node=name, into=registry)
        return registry

    def _merged_slo(self) -> SLOTracker:
        merged = SLOTracker()
        for ns in self._states.values():
            for tenant, acct in sorted(ns.serving.slo.accounts().items()):
                merged.account(tenant).merge(acct)
        return merged

    def report(self) -> ClusterReport:
        node_names = tuple(self._states)
        per_node = {name: self._states[name].serving.report() for name in node_names}
        merged = self._merged_slo()
        slo_text = merged.table()
        completed_total = deadline_met_total = expired_total = rejected_total = 0
        for acct in merged.accounts().values():
            completed_total += acct.completed
            deadline_met_total += acct.deadline_met
            expired_total += acct.expired
            rejected_total += acct.rejected_total
        migration = self.migration
        lines = [
            f"nodes={','.join(node_names)}",
            f"slo={hashlib.sha256(slo_text.encode()).hexdigest()}",
            f"routing={self._routing_digest.hexdigest()}",
            f"steals={self.router.steals} unroutable={self.unroutable}",
        ]
        lines += [
            f"node {name} {per_node[name].fingerprint} "
            f"completed={len(per_node[name].completed)}"
            for name in node_names
        ]
        lines += [f"{t:.3f} kill {name}" for t, name in self.node_kills]
        if migration is not None:
            lines += [record.line() for record in migration.records]
        fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return ClusterReport(
            node_names=node_names,
            slo_text=slo_text,
            fingerprint=fingerprint,
            makespan_us=max(
                [self._now]
                + [per_node[name].makespan_us for name in node_names]
            ),
            per_node=per_node,
            routed={name: self._states[name].routed for name in node_names},
            steals=self.router.steals,
            unroutable=self.unroutable,
            node_kills=tuple(self.node_kills),
            migrations=tuple(migration.records) if migration is not None else (),
            migrated_requests=self.migrated_requests,
            orphaned=self.orphaned,
            scrub_pages_audited=migration.scrub_pages_audited if migration else 0,
            scrub_violations=migration.scrub_violations if migration else 0,
            restore_mismatches=migration.restore_mismatches if migration else 0,
            completed_total=completed_total,
            deadline_met_total=deadline_met_total,
            expired_total=expired_total,
            rejected_total=rejected_total,
            restart_counters=self.cluster.restart_counters(),
        )
