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
node iteration order, so a cluster run replays byte-identically.  Only
nodes with an event due at an instant are advanced or flushed; the rest
catch their clocks up when the cluster next reads or feeds them.

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
surviving nodes that hold each request's image; the harvested requests
are re-delivered to the restore target after the sealed blob's simulated
network transfer.  The cluster-level exactly-once audit closes over *all*
nodes, so a migrated rid completing on two machines, or on none, is a
reported violation.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster, ClusterError, ClusterNode
from repro.cluster.images import ImageRegistry
from repro.cluster.migrate import MigrationManager, MigrationRecord
from repro.metrics.report import format_table
from repro.serve.admission import Request
from repro.serve.frontend import ServingReport, ServingSystem
from repro.serve.ledger import exactly_once_violations
from repro.serve.slo import SLOTracker
from repro.serve.tenants import TenantSpec
from repro.sim.events import Cursor, Phase, Timers, drive

_ARRIVAL_ORDER = attrgetter("arrival_us", "rid")
_ARRIVAL_US = attrgetter("arrival_us")
_AT = itemgetter(0)

#: Rejection recorded when no alive node holds the request's image.
REJECT_NO_IMAGE = "no-image-replica"

#: Memoized HRW homes kept before the memo starts over (a bound on its
#: memory when candidate sets churn, e.g. gateway re-placements).
HOME_MEMO_LIMIT = 1 << 16


def request_image(request: Request) -> str:
    """The enclave image a serving request needs (``kernel:<kind>``)."""
    return f"kernel:{request.kind}"


def rendezvous_score(key: str, node: str) -> int:
    """Deterministic HRW weight of ``key`` on ``node``."""
    digest = hashlib.sha256(f"{key}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class NodeState:
    """One node's serving frontend plus its cluster-side bookkeeping."""

    __slots__ = (
        "node", "name", "index", "serving", "alive", "routed",
        "backlog", "backlog_until",
    )

    def __init__(self, node: ClusterNode, index: int, serving: ServingSystem) -> None:
        self.node = node
        self.name = node.name
        self.index = index
        """Position in ``Cluster`` iteration order (the node timer's key)."""
        self.serving = serving
        self.alive = True
        self.routed = 0
        self.backlog = 0
        self.backlog_until = -math.inf
        """``backlog`` is the node's backlog until this instant, unless the
        cluster touches the node first (which resets it to -inf)."""


_CandidateSet = Tuple[Tuple[str, ...], Tuple[NodeState, ...]]
"""An image's alive holders: their names and their node states."""


class ClusterRouter:
    """Rendezvous sharding + backlog-threshold work stealing."""

    def __init__(self, images: ImageRegistry, *, steal_threshold: int = 64) -> None:
        self.images = images
        self.steal_threshold = steal_threshold
        self.steals = 0
        self._homes: Dict[Tuple[str, Tuple[str, ...]], str] = {}
        """(key, candidate tuple) -> HRW winner; exact, the score is pure."""

    def home(self, key: str, candidates: Sequence[str]) -> str:
        """The HRW winner among ``candidates`` (must be non-empty)."""
        candidates = tuple(candidates)
        memo_key = (key, candidates)
        home = self._homes.get(memo_key)
        if home is None:
            if len(self._homes) >= HOME_MEMO_LIMIT:
                self._homes.clear()
            home = self._homes[memo_key] = max(
                candidates, key=lambda n: (rendezvous_score(key, n), n)
            )
        return home

    def route(
        self, key: str, candidates: Sequence[str], backlog: Sequence[int]
    ) -> str:
        """Home node, unless its backlog is ``steal_threshold`` over the
        least-loaded candidate — then the least-loaded candidate steals.
        ``backlog[i]`` is ``candidates[i]``'s backlog; equally loaded
        candidates tie-break by name (the ``(backlog, name)`` minimum)."""
        home = self.home(key, candidates)
        if len(candidates) == 1:
            return home
        coolest = min(backlog)
        if backlog[candidates.index(home)] - coolest > self.steal_threshold:
            self.steals += 1
            return min(
                name for name, load in zip(candidates, backlog) if load == coolest
            )
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
        duplicates = sum(rep.duplicates_avoided for rep in self.per_node.values())
        return exactly_once_violations(
            self.per_node, duplicates_avoided=duplicates, orphaned=self.orphaned
        )

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
        for index, node in enumerate(members):
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
                serving.ledger.source = telemetry.attach(
                    node.system, slo=serving.slo, node=node.name
                )
            self._states[node.name] = NodeState(node, index, serving)
        self._by_index: List[NodeState] = list(self._states.values())
        self._node_due = Timers()
        """node index -> the node's ``next_event_time()``, re-reported by
        every phase that touches the node; only due nodes advance/flush."""
        self._candidate_sets: Dict[str, _CandidateSet] = {}
        """image -> its alive holders; valid while ``images.version`` equals
        ``_candidates_version`` (a kill drops the corpse from the registry,
        which moves the version)."""
        self._candidates_version = self.images.version
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

    def candidates(self, image: str) -> Tuple[str, ...]:
        """Alive member nodes holding ``image``, in the registry's order."""
        return self._candidate_set(image)[0]

    def _candidate_set(self, image: str) -> _CandidateSet:
        version = self.images.version
        if version != self._candidates_version:
            self._candidate_sets.clear()
            self._candidates_version = version
        cached = self._candidate_sets.get(image)
        if cached is None:
            states = [
                self._states[name] for name in self.images.nodes_for(image)
                if name in self._states and self._states[name].alive
            ]
            cached = self._candidate_sets[image] = (
                tuple(ns.name for ns in states), tuple(states)
            )
        return cached

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
        names, states = self._candidate_set(request_image(request))
        if not names:
            return None
        now = self._now
        backlog = []
        for ns in states:
            if now >= ns.backlog_until:
                serving = ns.serving
                serving.advance(now)
                ns.backlog = serving.backlog()
                ns.backlog_until = serving.backlog_falls_at()
            backlog.append(ns.backlog)
        return self.router.route(request.tenant, names, backlog)

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
        ns.serving.advance(self._now)
        ns.serving.offer(request)
        self._report_node(ns)
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
        surviving nodes that hold the requests' images and schedules the
        harvested requests for delivery there after the migration
        transfer delay.  Returns the harvested requests (primarily for
        tests)."""
        ns = self._states.get(name)
        if ns is None or not ns.alive:
            return []
        # The machine analog of the partition panic: every partition
        # fails, and the SPM scrub runs on the way down.
        ns.serving.advance(self._now)
        unfinished = ns.serving.harvest()
        if self.migration is not None:
            self.migration.audit_scrub(ns.node)
        ns.alive = False
        ns.node.fail()
        self._node_due.cancel(ns.index)
        self.images.drop_node(name)  # also retires the cached candidate sets
        self.node_kills.append((self._now, name))
        obs = ns.node.system.platform.obs
        # One marker on the corpse's own recorder so the recovery
        # trace attached to the node-death page is never empty, even
        # when every partition was already mid-recovery.
        obs.event(
            "recovery.node-kill", ts=self._now, category="recovery",
            node=name, harvested=len(unfinished),
        )
        # Each (tenant, image) group restores onto the tenant's rendezvous
        # home among the alive nodes holding that image; with none alive,
        # the group is orphaned.
        groups: Dict[Tuple[str, str], List[Request]] = {}
        for request in unfinished:
            groups.setdefault((request.tenant, request_image(request)), []).append(
                request
            )
        for tenant, image in sorted(groups):
            holders = self.candidates(image)
            if not holders:
                self.orphaned += len(groups[tenant, image])
                continue
            target_name = self.router.home(tenant, holders)
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
            for request in groups[tenant, image]:
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
                # remaining holders of the image (no further delay — the
                # blob is already off the first corpse).
                holders = self.candidates(request_image(request))
                if not holders:
                    self.orphaned += 1
                    continue
                ns = self._states[self.router.home(request.tenant, holders)]
            self.migrated_requests += 1
            ns.serving.advance(self._now)
            ns.serving.adopt(request)
            self._report_node(ns)

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
        for ns in self.alive_nodes():
            self._report_node(ns)
        phases = (
            Phase(self._node_due.peek, self._advance_nodes),
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
        # run (same backstop as the single-node loop).  Idle nodes' clocks
        # catch up to the makespan here.
        for ns in self.alive_nodes():
            ns.serving.advance(self._now)
            ns.serving.expire_parked()
        if self.telemetry is not None:
            self.telemetry.scrape(self._now)
        return self.report()

    def _report_node(self, ns: NodeState) -> None:
        """After the cluster touched a node: drop its cached backlog and
        re-read its next event instant into the node timer."""
        ns.backlog_until = -math.inf
        at = ns.serving.next_event_time()
        if at is None:
            self._node_due.cancel(ns.index)
        elif self._node_due.get(ns.index) != at:
            self._node_due.schedule(ns.index, at)

    def _next_migration(self) -> Optional[float]:
        heap = self._pending_migrations
        return heap[0][0] if heap else None

    def _advance_nodes(self, now: float) -> None:
        """Nodes due by ``now`` advance, in ``Cluster`` order; every other
        node's clock syncs lazily when the cluster next reads or feeds it."""
        self._now = now
        for index in sorted(self._node_due.pop_due(now)):
            ns = self._by_index[index]
            ns.serving.advance(now)
            self._report_node(ns)

    def _crash_partition(self, event: Tuple[float, str, str]) -> None:
        _, node, device = event
        ns = self._states.get(node)
        if ns is not None and ns.alive:
            ns.serving.advance(self._now)
            ns.serving.crash_partition(device)
            self._report_node(ns)

    def _flush_nodes(self, now: float) -> None:
        """Nodes due by ``now`` flush, in ``Cluster`` order.  Every node in
        the timer at or before ``now`` was touched this instant, so its
        clock already reads ``now``."""
        for index in sorted(self._node_due.pop_due(now)):
            ns = self._by_index[index]
            ns.serving.flush_due(now)
            self._report_node(ns)

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
