"""The ServingSystem façade: tenants → admission → batching → mEnclaves.

Turns a booted :class:`~repro.systems.cronus.CronusSystem` into a
multi-tenant inference frontend.  Offered requests pass admission control,
are placed onto a partition by the spatial-sharing placer, ride the
partition's shared long-lived sRPC runtime in deadline-ordered batches,
and are accounted per tenant by the SLO tracker.

Two notions of time coexist (see ``docs/serving.md``):

* The serving layer runs an **open-loop virtual event timeline**
  (arrivals, batch-flush deadlines, crash and recovery instants) — the
  time axis all SLO metrics use.  Per-partition ``free_at`` bookkeeping
  models the partitions draining their queues concurrently.
* The **platform clock** is the execution-cost meter: each batch really
  executes on the mEnclave stack, and the clock delta it produces is the
  batch's service time.  The global clock serializes all partitions'
  work, so it is *not* used directly as a latency axis.

The inner loop runs on the shared event core, :mod:`repro.sim.events`
(phase order: ``docs/serving.md``, "Event phase order"): the arrival
trace and crash schedule are cursors, recoveries and fleet boot/park
instants are keyed timers, and so are the batcher's batch-flush
obligations, so one simulated second of open-loop traffic costs
O(events · log n) host work.  The pre-heap implementation rebuilt an
event list and re-scanned every pending queue per step, which was
O(events · n); it survives verbatim as
:class:`~repro.serve.legacy.LegacyServingSystem` and the scheduler
equivalence suite asserts both engines produce byte-identical SLO tables,
completion orders and audits from the same seeded trace.  A
:class:`~repro.cluster.serve.ClusterServingSystem` drives each node only
through the public node interface (``next_event_time`` … ``expire_parked``).

**Elastic fleet** (the SLO-driven autoscaler): with an
:class:`~repro.serve.autoscaler.AutoscalerPolicy` (or a fixed
``scale_events`` schedule) the GPU partitions become a managed fleet.
Each device is ``live`` (placeable), ``booting`` (mOS loading for
``boot_delay_us`` of virtual time before its sRPC runtime is warmed),
``draining`` (retire decided: no new placements, pending batch flushed,
parks once the device runs dry) or ``parked`` (retired: runtime closed
via the crash-failover drain path, minus the scrub — a retire is clean).
Every transition is an ordinary virtual-time event, recorded in
``scaling_events``, so an autoscaled run is replayable: feed the recorded
boot/retire decisions back as ``scale_events`` (with the same
``initial_live`` fleet) and the run — on either engine — reproduces the
byte-identical SLO table and completion order.

Failover (the section IV-D story, lifted to the serving layer): a
partition crash mid-request surfaces as
:class:`~repro.rpc.channel.SRPCPeerFailure`; the frontend re-queues every
admitted-but-unfinished request — never a completed one — and re-places
it on a surviving partition, or parks it until the crashed partition's
background recovery window closes.  Every admission, re-queue and
settlement goes through the engine's
:class:`~repro.serve.ledger.RequestLedger`, which makes completion
**at-most-once**: each admitted request completes, expires or is
rejected after admission exactly once, never duplicated.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dispatch.dispatcher import DispatchError, NoReadyPartition
from repro.obs.span import NO_SPAN
from repro.rpc.channel import SRPCPeerFailure
from repro.secure.spm import SPMError
from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    REJECT_QUEUE_FULL,
    Request,
)
from repro.serve.autoscaler import (
    Autoscaler,
    AutoscalerPolicy,
    DECISION_ACTIONS,
    SCALE_BOOT,
    SCALE_PARK,
    SCALE_RETIRE,
    SCALE_UP,
)
from repro.serve.batcher import DeadlineBatcher
from repro.serve.ledger import RequestLedger, exactly_once_violations
from repro.serve.placement import SpatialPlacer
from repro.serve.slo import SLOTracker
from repro.serve.tenants import Tenant, TenantRegistry, TenantSpec
from repro.sim.events import Cursor, Phase, Timers, drive

_ARRIVAL_ORDER = attrgetter("arrival_us", "rid")
_ARRIVAL_US = attrgetter("arrival_us")
_AT = itemgetter(0)

#: Elastic-fleet device states (``ServingReport.fleet_states`` values).
FLEET_LIVE = "live"
FLEET_BOOTING = "booting"
FLEET_DRAINING = "draining"
FLEET_PARKED = "parked"

#: Fleet states a flushed batch may execute in.
_SERVABLE_STATES = (FLEET_LIVE, FLEET_DRAINING)


class ServingError(Exception):
    """Frontend misuse (unknown device, unsupported request kind)."""


class _PartitionWorker:
    """Executes batches on one partition over a shared long-lived runtime.

    The runtime (CPU mEnclave + accelerator mEnclave + sRPC channel) is
    created once per partition *generation* and reused across batches and
    tenants — the channel-setup amortization the batcher exists for.  A
    crash abandons the generation; the next batch lazily builds a fresh
    one against the recovered partition.
    """

    def __init__(self, serving: "ServingSystem", device_name: str) -> None:
        self._serving = serving
        self.device_name = device_name
        self.runtime = None
        self._owner: Optional[str] = None
        self.generation = 0
        self.calls = 0
        self.batches = 0

    def ensure_runtime(self):
        if self.runtime is None:
            self.generation += 1
            self._owner = f"serve-{self.device_name}-g{self.generation}"
            self.runtime = self._serving.system.runtime(
                cuda_kernels=self._serving.kernels,
                gpu_name=self.device_name,
                owner=self._owner,
            )
        return self.runtime

    def abandon(self) -> None:
        """Drop the runtime after a crash or retire; scrap CPU-side state."""
        runtime, self.runtime = self.runtime, None
        if runtime is not None:
            try:
                runtime.close()
            except Exception:
                pass  # the peer is gone; there is nothing left to close
        if self._owner is not None:
            try:
                self._serving.system.application(self._owner).shutdown()
            except Exception:
                pass

    def run_request(self, request: Request) -> Tuple[float, bool, bool]:
        """Execute one request; returns (service_us, correct, crashed_after).

        ``crashed_after`` flags a peer failure during post-completion
        cleanup: the result is already in hand, so the request counts as
        completed and only the *worker* needs failover.
        """
        rt = self.runtime
        clock = self._serving.system.clock
        start = clock.now
        rng = np.random.default_rng(request.data_seed)
        a = rng.standard_normal((request.size, request.size)).astype(np.float32)
        expected = a @ a
        ha = rt.cudaMalloc(a.shape)
        hc = rt.cudaMalloc(a.shape)
        rt.cudaMemcpyH2D(ha, a)
        rt.cudaLaunchKernel(request.kind, [ha, ha, hc])
        out = rt.cudaMemcpyD2H(hc)
        crashed_after = False
        try:
            rt.cudaFree(hc)
            rt.cudaFree(ha)
        except (SRPCPeerFailure, SPMError):
            crashed_after = True
        self.calls += 1
        correct = (
            isinstance(out, np.ndarray)
            and out.shape == expected.shape
            and bool(np.allclose(out, expected, atol=1e-2))
        )
        return clock.now - start, correct, crashed_after


class _SyntheticWorker:
    """A worker whose service times come from a model, not the enclave
    stack.

    The scale benchmarks swap this in (``service_model=`` on the
    :class:`ServingSystem`) so a million-request sweep measures the
    *scheduling engine*, not a million simulated matmuls.  Admission,
    placement, batching, deadline checks, SLO accounting and crash
    bookkeeping all run exactly as with the real worker; only
    ``run_request`` differs, returning a deterministic service time that
    is a pure function of the request.
    """

    __slots__ = ("device_name", "generation", "calls", "batches", "_model")

    def __init__(self, device_name: str, model: Callable[[Request], float]) -> None:
        self.device_name = device_name
        self.generation = 0
        self.calls = 0
        self.batches = 0
        self._model = model

    def ensure_runtime(self) -> None:
        if self.generation == 0:
            self.generation = 1

    def abandon(self) -> None:
        pass

    def run_request(self, request: Request) -> Tuple[float, bool, bool]:
        self.calls += 1
        return self._model(request), True, False


@dataclass
class ServingReport:
    """Outcome of one :meth:`ServingSystem.run`."""

    slo_text: str
    fingerprint: str
    makespan_us: float
    admitted: Set[str]
    completed: Dict[str, float]
    """rid -> completion time (simulated us); one entry per completion."""
    expired: Set[str]
    rejected_after_admit: Set[str]
    crashes: Tuple[str, ...]
    wrong_results: int
    duplicates_avoided: int
    batcher_stats: Dict[str, object]
    worker_stats: Dict[str, Dict[str, int]]
    device_seconds: float = 0.0
    """Fleet-on time: sum over devices of live simulated seconds (static
    fleet: every GPU device times the makespan)."""
    scaling_events: Tuple[Tuple[float, str, str], ...] = ()
    """(time_us, action, device) fleet transitions, in application order:
    ``boot``/``retire`` are decisions, ``up``/``park`` completions."""
    scale_fingerprint: str = ""
    """Digest of (initial fleet, boot delay, scaling event log)."""
    initial_live: Tuple[str, ...] = ()
    fleet_states: Dict[str, str] = field(default_factory=dict)

    def scale_schedule(self) -> List[Tuple[float, str, str]]:
        """The replayable decision schedule: feed to ``run(...,
        scale_events=...)`` (with the same ``initial_live`` and
        ``boot_delay_us``) to reproduce this run's fleet byte-for-byte."""
        return [e for e in self.scaling_events if e[1] in DECISION_ACTIONS]

    def audit_exactly_once(self) -> List[str]:
        """At-most-once/no-loss audit; returns violation descriptions."""
        return exactly_once_violations(
            {"node": self}, duplicates_avoided=self.duplicates_avoided
        )


class ServingSystem:
    """Multi-tenant serving frontend over a CronusSystem."""

    def __init__(
        self,
        system,
        *,
        max_batch: int = 8,
        max_delay_us: float = 2_000.0,
        kernels: Tuple[str, ...] = ("matmul",),
        service_model: Optional[Callable[[Request], float]] = None,
        autoscaler: Optional[object] = None,
        initial_live: Optional[Sequence[str]] = None,
        boot_delay_us: Optional[float] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        self.system = system
        self._gpus = sorted(
            name for name, mos in system.moses.items() if mos.device_type == "gpu"
        )
        self.kernels = kernels
        self.service_model = service_model
        self.registry = TenantRegistry()
        self.admission = AdmissionController(self.registry)
        self.batcher = DeadlineBatcher(max_batch=max_batch, max_delay_us=max_delay_us)
        self.placer = SpatialPlacer(system.dispatcher)
        self.slo = SLOTracker()
        self._workers: Dict[str, object] = {}
        self._free_at: Dict[str, float] = {}
        self._inflight: Dict[str, deque] = {}
        """device -> completion instants of work already flushed to the
        worker but not yet finished at ``_now`` (appended in increasing
        order because ``_free_at`` is monotone per device)."""
        self._down = Timers()
        """device -> instant its crash-recovery window closes."""
        self._parked: List[Request] = []
        self._now = 0.0
        self.crashes: List[str] = []
        self.wrong_results = 0
        self.duplicates_avoided = 0
        self._obs = system.platform.obs
        self._metrics = system.platform.metrics
        self.ledger = RequestLedger(self.admission, self.slo, self._obs)
        # -- telemetry pipeline (inert when None) --------------------------
        self.telemetry = telemetry
        if telemetry is not None:
            # Owning engine: attach the underlying system (this enables
            # spans + metrics) and drive the scrape timer from run().
            self.ledger.source = telemetry.attach(system, slo=self.slo)
        # -- elastic fleet state (inert when self._fleet is None) ----------
        if autoscaler is None:
            self.autoscaler: Optional[Autoscaler] = None
        elif isinstance(autoscaler, Autoscaler):
            self.autoscaler = autoscaler
        elif isinstance(autoscaler, AutoscalerPolicy):
            self.autoscaler = Autoscaler(autoscaler)
        else:
            raise ServingError(
                "autoscaler must be an AutoscalerPolicy or Autoscaler, got "
                f"{type(autoscaler).__name__}"
            )
        if boot_delay_us is not None:
            self.boot_delay_us = float(boot_delay_us)
        elif self.autoscaler is not None:
            self.boot_delay_us = self.autoscaler.policy.boot_delay_us
        else:
            self.boot_delay_us = 25_000.0
        self._initial_live = tuple(initial_live) if initial_live is not None else None
        self._fleet: Optional[Dict[str, str]] = None
        """device -> live|booting|draining|parked; None = static fleet."""
        self._fleet_since: Dict[str, float] = {}
        """device -> start of its current live interval (virtual us)."""
        self._device_live_us: Dict[str, float] = {}
        self._boot_at = Timers()
        """device -> virtual instant its boot completes (mirrors booting)."""
        self._park_at = Timers()
        """device -> virtual instant its drain ends (mirrors draining)."""
        self._next_tick_us: Optional[float] = None
        self._more_arrivals = False
        self.initial_live: Tuple[str, ...] = ()
        self.scaling_events: List[Tuple[float, str, str]] = []
        self._drain_spans: Dict[str, object] = {}
        if self.autoscaler is not None or self._initial_live is not None:
            self._ensure_fleet()

    # -- tenants -----------------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> Tenant:
        return self.registry.register(spec)

    # -- the elastic fleet -------------------------------------------------
    def _ensure_fleet(self) -> None:
        """Switch to elastic-fleet mode (idempotent).

        The fleet covers every GPU partition the system booted; devices
        outside ``initial_live`` start parked (excluded from placement
        and from the dispatcher's routing table) until a boot decision
        brings them up.  Static-fleet runs never reach this code.
        """
        if self._fleet is not None:
            return
        gpus = self._gpus
        if not gpus:
            raise ServingError("an elastic fleet requires at least one GPU partition")
        if self._initial_live is None:
            if self.autoscaler is not None:
                live = gpus[: min(len(gpus), self.autoscaler.policy.min_devices)]
            else:
                live = list(gpus)
        else:
            unknown = sorted(set(self._initial_live) - set(gpus))
            if unknown:
                raise ServingError(
                    f"initial_live names unknown GPU devices: {unknown}"
                )
            live = [d for d in gpus if d in set(self._initial_live)]
            if not live:
                raise ServingError("initial_live must name at least one GPU device")
        live_set = set(live)
        self._fleet = {}
        for name in gpus:
            if name in live_set:
                self._fleet[name] = FLEET_LIVE
                self._fleet_since[name] = self._now
            else:
                self._fleet[name] = FLEET_PARKED
                self.system.dispatcher.park(name)
        self.initial_live = tuple(live)
        self._metrics.gauge("serve", "fleet_live").set(len(live))

    def _servable(self, device: str) -> bool:
        """Whether a batch may execute on ``device``: always in a static
        fleet, and in an elastic one only while live or draining."""
        fleet = self._fleet
        return fleet is None or fleet.get(device, FLEET_LIVE) in _SERVABLE_STATES

    def _live_count(self) -> int:
        return sum(1 for state in self._fleet.values() if state == FLEET_LIVE)

    def fleet_states(self) -> Dict[str, str]:
        """The fleet state machine's current view (empty when static)."""
        return dict(self._fleet) if self._fleet is not None else {}

    def _record_scale(self, t_us: float, action: str, device: str) -> None:
        self.scaling_events.append((t_us, action, device))
        self._obs.event(
            "serve.scale", category="serve", ts=t_us,
            action=action, device=device, fleet_live=self._live_count(),
        )
        self._metrics.counter("serve", f"scale_{action}").inc()
        self._metrics.gauge("serve", "fleet_live").set(self._live_count())

    def _accumulate_live(self, device: str, t_us: float) -> None:
        since = self._fleet_since.pop(device, None)
        if since is not None:
            self._device_live_us[device] = (
                self._device_live_us.get(device, 0.0) + (t_us - since)
            )

    def _apply_scale(self, t_us: float, action: str, device: str) -> None:
        if action == SCALE_BOOT:
            self._begin_boot(t_us, device)
        elif action == SCALE_RETIRE:
            self._begin_retire(t_us, device)
        else:
            raise ServingError(
                f"unknown scaling action {action!r}; schedules replay only "
                f"{DECISION_ACTIONS}"
            )

    def _begin_boot(self, t_us: float, device: str) -> None:
        """Start booting a parked partition; live after ``boot_delay_us``."""
        if self._fleet.get(device) != FLEET_PARKED:
            return
        self._fleet[device] = FLEET_BOOTING
        self._boot_at.schedule(device, t_us + self.boot_delay_us)
        self._record_scale(t_us, SCALE_BOOT, device)

    def _finish_boot(self, device: str) -> None:
        """Boot window closed: the partition joins the live set and its
        shared sRPC runtime is warmed so the first batch pays no setup."""
        self._fleet[device] = FLEET_LIVE
        self._fleet_since[device] = self._now
        self.system.dispatcher.unpark(device)
        self.placer.mark_dirty(device)
        try:
            self._worker(device).ensure_runtime()
        except (SRPCPeerFailure, NoReadyPartition, SPMError):
            pass  # crashed while booting; recovery re-warms lazily
        self._record_scale(self._now, SCALE_UP, device)
        # New capacity: requests parked for want of a ready partition can
        # now place (same move as the post-recovery path).
        self._replace_parked()

    def _begin_retire(self, t_us: float, device: str) -> None:
        """Retire decision: stop placing, flush pending work, then park.

        This is the crash-failover drain path minus the scrub — the
        partition is healthy, so its pending batch executes normally and
        the runtime closes cleanly once the device runs dry.
        """
        state = self._fleet.get(device)
        if state == FLEET_BOOTING:
            # Cancelled mid-boot: nothing placed yet, park immediately.
            self._boot_at.cancel(device)
            self._fleet[device] = FLEET_PARKED
            self._record_scale(t_us, SCALE_RETIRE, device)
            self._record_scale(t_us, SCALE_PARK, device)
            return
        if state != FLEET_LIVE:
            return
        self._fleet[device] = FLEET_DRAINING
        self.system.dispatcher.park(device)
        self._record_scale(t_us, SCALE_RETIRE, device)
        self._drain_spans[device] = self._obs.begin(
            "serve.drain", category="serve", detached=True,
            ts=t_us, device=device,
        )
        self._flush(device, reason="drain")
        self._park_at.schedule(device, max(t_us, self._free_at.get(device, 0.0)))

    def _finish_park(self, device: str) -> None:
        """Drain complete: close the runtime and leave the fleet."""
        if self._fleet.get(device) != FLEET_DRAINING:
            return
        self._fleet[device] = FLEET_PARKED
        self._accumulate_live(device, self._now)
        worker = self._workers.get(device)
        if worker is not None:
            worker.abandon()
        self.placer.mark_dirty(device)
        self.placer.forget(device)
        self._record_scale(self._now, SCALE_PARK, device)
        self._obs.end(self._drain_spans.pop(device, NO_SPAN), ts=self._now)
        # Backstop: anything still queued (a crash-requeue racing the
        # drain) re-places on the surviving fleet, never runs here.
        for request in self.batcher.evict(device):
            self._place(request)

    def _process_fleet_timers(self) -> None:
        """Fire due boot-completions, then due parks (sorted by device,
        so same-instant transitions are deterministic on both engines)."""
        for device in sorted(self._boot_at.pop_due(self._now)):
            self._finish_boot(device)
        for device in sorted(self._park_at.pop_due(self._now)):
            self._finish_park(device)

    def _process_tick(self) -> None:
        """Run one autoscaler evaluation if its grid instant has come."""
        scaler = self.autoscaler
        if scaler is None or self._next_tick_us is None:
            return
        if not self._more_arrivals:
            # The arrival stream ended before this tick: cancel it rather
            # than letting a controller-only event stretch the makespan —
            # a replayed schedule has no ticks, and both runs must end at
            # the same final instant.
            self._next_tick_us = None
            return
        if self._next_tick_us > self._now:
            return
        t = self._next_tick_us
        self._next_tick_us = None
        live: List[str] = []
        booting: List[str] = []
        parked: List[str] = []
        for device, state in self._fleet.items():
            if state == FLEET_LIVE:
                live.append(device)
            elif state == FLEET_BOOTING:
                booting.append(device)
            elif state == FLEET_PARKED:
                parked.append(device)
        live.sort()
        booting.sort()
        parked.sort()
        for action, device in scaler.evaluate(
            t, live=live, booting=booting, parked=parked
        ):
            self._apply_scale(t, action, device)
        if self._more_arrivals:
            self._next_tick_us = t + scaler.policy.eval_interval_us

    def _begin_run(self, scale_events: Sequence[Tuple[float, str, str]]):
        """Validate the fixed scale schedule and arm the controller."""
        scale_queue = sorted(scale_events)
        for t_us, action, device in scale_queue:
            if action not in DECISION_ACTIONS:
                raise ServingError(
                    f"scale event at {t_us} has action {action!r}; replayable "
                    f"schedules contain only {DECISION_ACTIONS}"
                )
        if scale_queue:
            self._ensure_fleet()
        if self.autoscaler is not None and self._next_tick_us is None:
            self._next_tick_us = self._now + self.autoscaler.policy.eval_interval_us
        return scale_queue

    # -- the serving loop --------------------------------------------------
    def run(
        self,
        arrivals: Iterable[Request],
        *,
        crash_events: Sequence[Tuple[float, str]] = (),
        scale_events: Sequence[Tuple[float, str, str]] = (),
    ) -> ServingReport:
        """Serve an open-loop arrival stream to completion.

        ``crash_events`` is a sorted-or-not list of ``(time_us, device)``
        partition crashes injected mid-load (the figure-9 scenario lifted
        into the serving layer).  ``scale_events`` is a fixed
        ``(time_us, action, device)`` boot/retire schedule — typically a
        previous autoscaled run's :meth:`ServingReport.scale_schedule` —
        replayed deterministically on the virtual timeline.

        The phases below fire in the ``ServingSystem`` order of the
        ``docs/serving.md`` phase table, the legacy scan loop's order.
        """
        arrivals = Cursor(
            sorted(arrivals, key=_ARRIVAL_ORDER), _ARRIVAL_US, self.offer
        )
        crashes = Cursor(
            sorted(crash_events), _AT, lambda event: self.crash_partition(event[1])
        )
        scales = Cursor(
            self._begin_run(scale_events),
            _AT,
            lambda event: self._apply_scale(self._now, event[1], event[2]),
        )
        # Truthy while arrivals remain: the autoscaler only ticks alongside
        # traffic, so a controller-only event never stretches the makespan.
        self._more_arrivals = arrivals
        phases = [Phase(self.next_event_time, self.advance)]
        if self._fleet is not None:
            phases += [
                Phase(None, lambda now: self._process_fleet_timers()),
                scales,
                Phase(None, lambda now: self._process_tick()),
            ]
        phases += [arrivals, crashes, Phase(None, self.flush_due)]
        drive(phases, self.telemetry, self._now)
        self._more_arrivals = False
        self.expire_parked()
        if self.telemetry is not None:
            # Final scrape at the makespan so the tail of the run lands
            # in the store.
            self.telemetry.scrape(self._now)
        return self.report()

    # -- the node interface (also driven by the cluster loop) ----------------
    def next_event_time(self) -> Optional[float]:
        """The earliest instant this node has work of its own at — a
        recovery, a batch flush, a fleet boot/park or an autoscaler tick
        (only while arrivals remain) — or None."""
        t = self._down.peek()
        due = self.batcher.earliest_due()
        if due is not None and (t is None or due < t):
            t = due
        if self._fleet is not None:
            for timers in (self._boot_at, self._park_at):
                at = timers.peek()
                if at is not None and (t is None or at < t):
                    t = at
            tick = self._next_tick_us
            if (
                tick is not None
                and self._more_arrivals
                and (t is None or tick < t)
            ):
                t = tick
        return t

    def advance(self, now: float) -> None:
        """Move the node's clock to ``now`` and close every recovery
        window due by then; parked work re-places on the recovered
        partitions."""
        if now > self._now:
            self._now = now
        if not self._down:
            return
        recovered = list(self._down.pop_due(self._now))
        if not recovered:
            return
        for device in recovered:
            self.placer.mark_dirty(device)
        self._replace_parked()

    def flush_due(self, now: float) -> None:
        """Flush every partition whose batch is due at ``now``."""
        for device in self.batcher.due_partitions(now):
            self._flush(device)

    def backlog(self) -> int:
        """Admitted work not yet finished: parked requests plus every GPU
        partition's pending and still-executing requests — the sum of
        :meth:`_effective_depth` over the GPUs, read in one pass."""
        return (
            len(self._parked) + self.batcher.pending()
            + sum(map(len, self._executing()))
        )

    def backlog_falls_at(self) -> float:
        """When :meth:`backlog` next falls with no other event: the first
        completion instant after the node's clock of work still executing
        (``inf`` when nothing is executing)."""
        return min((done[0] for done in self._executing() if done), default=math.inf)

    def _executing(self):
        """Each GPU's completion instants still after the node's clock."""
        now = self._now
        for done in self._inflight.values():
            while done and done[0] <= now:
                done.popleft()
        return self._inflight.values()

    def harvest(self) -> List[Request]:
        """The machine under this node dies: fail every partition not
        already mid-recovery (the SPM scrub runs on the way down) and hand
        back every admitted-but-unfinished request, in arrival order."""
        unfinished: List[Request] = []
        for device in sorted(self.batcher.depths()):
            unfinished.extend(self.batcher.evict(device))
        unfinished.extend(self._parked)
        self._parked = []
        unfinished.sort(key=_ARRIVAL_ORDER)
        for device in self._gpus:
            if device not in self._down:
                self.system.fail_partition(device, background=True)
        return unfinished

    def adopt(self, request: Request) -> None:
        """Take over a request admitted on another node: its admitted state
        moves with it (no re-charge of the rate limiter), then it places —
        or, if its deadline passed in transit, expires — exactly once."""
        self.ledger.admitted.add(request.rid)
        tenant = self.registry.get(request.tenant)
        tenant.in_flight += 1
        tenant.in_flight_bytes += request.memory_bytes
        self.ledger.requeue(request)
        if request.deadline_us < self._now:
            self._expire(request)
        else:
            self._place(request)

    def expire_parked(self) -> None:
        """End of the stream: a parked request with no recovery or boot
        pending can never run (its partition was torn down outside the
        serving layer), so report it expired rather than lose it."""
        for request in self._parked:
            self._expire(request)
        self._parked.clear()

    def offer(self, request: Request) -> AdmissionDecision:
        """Admit (and place) or reject one request at its arrival time."""
        if request.device_type != "gpu":
            raise ServingError(
                f"request {request.rid!r}: only device_type='gpu' is servable"
            )
        self.slo.record_offered(request)
        span = self.ledger.begin(
            "serve.request", request, size=request.size, deadline_us=request.deadline_us
        )
        decision = self.admission.offer(request, request.arrival_us)
        scaler = self.autoscaler
        if not decision.admitted:
            self.ledger.reject(request, decision.reason, span)
            if scaler is not None and decision.reason == REJECT_QUEUE_FULL:
                # Queue-full is the admission signal the fleet can fix:
                # the tenant's in-flight window is clogged with work
                # waiting on capacity (rate-limit rejections are not).
                scaler.observe_rejection(request.arrival_us)
            self._metrics.counter("serve", "rejected").inc()
            return decision
        self.ledger.admit(request, span)
        if scaler is not None:
            scaler.observe_arrival(request.arrival_us)
        self._metrics.counter("serve", "admitted").inc()
        self._place(request)
        return decision

    # -- placement and batching --------------------------------------------
    def _is_ready(self, mos) -> bool:
        device = mos.partition.device.name
        if self._fleet is not None and self._fleet.get(device, FLEET_LIVE) != FLEET_LIVE:
            return False
        return self._down.get(device, self._now) <= self._now

    def _effective_depth(self, device_name: str) -> int:
        """Pending queue depth plus requests still executing on the worker.

        The batcher's per-device queue empties at every flush, but the
        flushed work keeps the device busy until its completion instants
        pass.  Scoring on the pending count alone made the placer stuff a
        saturated device whose queue had just been flushed (its depth read
        0 while its worker backlog grew without bound); counting the
        not-yet-finished flushed requests keeps placement balanced against
        actual device occupancy.  Integer arithmetic on recorded
        completion instants, so both engines compute the same value.
        """
        backlog = self._inflight.get(device_name)
        extra = 0
        if backlog:
            now = self._now
            while backlog and backlog[0] <= now:
                backlog.popleft()
            extra = len(backlog)
        return self.batcher.depth(device_name) + extra

    def _place(self, request: Request) -> None:
        try:
            mos = self.placer.place(
                request, self._effective_depth, is_ready=self._is_ready
            )
        except NoReadyPartition:
            self._parked.append(request)
            if self.autoscaler is not None:
                self.autoscaler.observe_parked(self._now)
            self._obs.event(
                "serve.park", category="serve", ts=self._now,
                parent=self.ledger.context(request.rid), rid=request.rid,
            )
            self._metrics.counter("serve", "parked").inc()
            return
        except DispatchError:
            # No partition manages such a device at all: terminal.
            self.ledger.reject_after_admit(request, self._now)
            return
        device = mos.partition.device.name
        if self.batcher.add(device, request, self._now):
            self._flush(device, reason="full")

    def _flush(self, device: str, *, reason: str = "due") -> None:
        if not self._servable(device):
            # A flush obligation for a parked/booting partition must never
            # resurrect it with a fresh worker: re-place the work on the
            # surviving fleet (the drain path, minus the scrub).
            for request in self.batcher.evict(device):
                self._place(request)
            return
        batch = self.batcher.flush(device, self._now, reason=reason)
        if batch is not None:
            self._execute_batch(batch)

    # -- execution ---------------------------------------------------------
    def _worker(self, device: str):
        worker = self._workers.get(device)
        if worker is None:
            if self.service_model is not None:
                worker = _SyntheticWorker(device, self.service_model)
            else:
                worker = _PartitionWorker(self, device)
            self._workers[device] = worker
        return worker

    def _execute_batch(self, batch) -> None:
        device = batch.device_name
        worker = self._worker(device)
        inflight = self._inflight.setdefault(device, deque())
        start = max(batch.formed_us, self._free_at.get(device, 0.0))
        clock = self.system.clock
        cum = 0.0
        leftover: List[Request] = []
        crashed = False
        scaler = self.autoscaler
        partition = self.system.spm.partition_for_device(device).name
        batch_span = self._obs.begin(
            "serve.batch", category="serve", detached=True, ts=start,
            partition=partition, device=device, size=len(batch.requests),
            reason=batch.reason,
        )
        setup_start = clock.now
        try:
            worker.ensure_runtime()
        except (SRPCPeerFailure, NoReadyPartition, SPMError):
            crashed = True
            leftover = list(batch.requests)
        cum += clock.now - setup_start
        if not crashed:
            worker.batches += 1
            for index, request in enumerate(batch.requests):
                if self.ledger.settled(request.rid):
                    # At-most-once guard: a settled request never re-runs.
                    self.duplicates_avoided += 1
                    self.slo.record_duplicate_avoided(request)
                    continue
                if start + cum > request.deadline_us:
                    self._expire(request, device=device)
                    continue
                exec_start = start + cum
                try:
                    service, correct, crashed_after = worker.run_request(request)
                except (SRPCPeerFailure, NoReadyPartition, SPMError):
                    crashed = True
                    leftover = [request] + list(batch.requests[index + 1:])
                    break
                cum += service
                self._obs.record(
                    "serve.execute", category="serve",
                    start_us=exec_start, end_us=start + cum,
                    parent=self.ledger.context(request.rid),
                    partition=partition, rid=request.rid,
                    batch_span=batch_span.context and batch_span.context.span_id,
                )
                self._metrics.histogram("serve", "service_us").observe(service)
                inflight.append(start + cum)
                self._complete(request, start + cum, correct)
                if scaler is not None:
                    scaler.observe_completion(
                        start + cum, start + cum - request.arrival_us, service
                    )
                if crashed_after:
                    crashed = True
                    leftover = list(batch.requests[index + 1:])
                    break
        self._free_at[device] = start + cum
        # Executing on the device moved its live contexts / reservations.
        self.placer.mark_dirty(device)
        self._obs.end(batch_span, ts=start + cum, crashed=crashed)
        self._metrics.counter("serve", "batches").inc()
        self._metrics.histogram("serve", "batch_us").observe(cum)
        if crashed:
            self._handle_worker_failure(device, leftover)

    def _complete(self, request: Request, completion_us: float, correct: bool) -> None:
        if not correct:
            self.wrong_results += 1
        self.ledger.complete(
            request, completion_us, sampled="completed" if correct else "error",
            outcome="completed", correct=correct,
        )
        self._metrics.counter("serve", "completed").inc()
        self._metrics.histogram("serve", "latency_us").observe(
            completion_us - request.arrival_us
        )

    def _expire(self, request: Request, *, device: Optional[str] = None) -> None:
        self.ledger.expire(request, self._now)
        if device is not None:
            # Settling releases the tenant's reserved bytes; the device it
            # was queued on must rescore or incremental placement diverges
            # from a full recompute (the expiry-path mark_dirty fix).
            self.placer.mark_dirty(device)
        self._metrics.counter("serve", "expired").inc()

    # -- failure handling --------------------------------------------------
    def crash_partition(self, device: str) -> float:
        """Crash ``device``'s partition mid-load (background recovery).

        Returns the recovery window's end (simulated us).  Pending and
        in-flight requests are re-queued by the failover path; the caller
        normally lets :meth:`run` drive this via ``crash_events``.
        """
        if self.system.moses.get(device) is None:
            raise ServingError(f"no partition manages device {device!r}")
        if device in self._down:
            return self._down.get(device)
        ready_at = self._mark_down(device)
        self._handle_worker_failure(device, [])
        return ready_at

    def injected_crash(self, device: str) -> None:
        """`FaultInjector` crash-handler hook: mark the partition down.

        Called synchronously from an injection site mid-execution; the
        subsequent shared-memory access traps, surfaces as
        ``SRPCPeerFailure`` in the executing batch, and the normal
        failover path re-queues the unfinished requests.
        """
        if self.system.moses.get(device) is None or device in self._down:
            return
        self._mark_down(device, injected=True)

    def _mark_down(self, device: str, **event) -> float:
        """Fail the partition (background recovery) and keep it out of
        placement until its recovery window closes; returns that instant."""
        rec = self.system.fail_partition(device, background=True)
        ready_at = self._now + rec.total_us
        self._down.schedule(device, ready_at)
        self.placer.mark_dirty(device)
        self.crashes.append(device)
        self._obs.event(
            "serve.crash", category="serve", ts=self._now,
            device=device, ready_at_us=ready_at, **event,
        )
        self._metrics.counter("serve", "crashes").inc()
        return ready_at

    def _handle_worker_failure(self, device: str, leftover: List[Request]) -> None:
        """Abandon the worker and re-queue admitted-but-unfinished work."""
        worker = self._workers.get(device)
        if worker is not None:
            worker.abandon()
        self.placer.mark_dirty(device)
        requeue = list(leftover)
        if device in self._down or not self._servable(device):
            requeue.extend(self.batcher.evict(device))
        for request in requeue:
            context = self.ledger.requeue(request)
            self._obs.event(
                "serve.requeue", category="serve", ts=self._now,
                parent=context, rid=request.rid, from_device=device,
            )
            self._metrics.counter("serve", "requeued").inc()
            self._place(request)

    def _replace_parked(self) -> None:
        """Re-place requests parked for want of capacity (post-recovery
        and post-boot); anything already past its deadline expires."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for request in parked:
            if request.deadline_us < self._now:
                self._expire(request)
            else:
                self._place(request)

    # -- reporting ---------------------------------------------------------
    def _device_seconds(self) -> float:
        """Fleet-on simulated seconds: live intervals summed per device.

        A static fleet keeps every GPU partition powered for the whole
        run; the elastic fleet only pays for the intervals the autoscaler
        kept each device live (booting/draining time counts as live — the
        device is powered while the mOS loads and the drain finishes)."""
        if self._fleet is None:
            return len(self._gpus) * self._now / 1e6
        total = 0.0
        for device in sorted(set(self._device_live_us) | set(self._fleet_since)):
            total += self._device_live_us.get(device, 0.0)
            since = self._fleet_since.get(device)
            if since is not None:
                total += self._now - since
        return total / 1e6

    def scale_fingerprint(self) -> str:
        """Digest of the fleet trajectory — byte-identical across replays."""
        lines = [
            f"initial={','.join(self.initial_live)} "
            f"boot_delay_us={self.boot_delay_us:.3f}"
        ]
        lines += [
            f"{t_us:.6f} {action} {device}"
            for t_us, action, device in self.scaling_events
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def report(self) -> ServingReport:
        self._metrics.absorb("serve.batcher", self.batcher.stats)
        if self.autoscaler is not None:
            self._metrics.absorb("serve.autoscaler", self.autoscaler.stats)
        worker_stats = {
            device: {
                "batches": worker.batches,
                "requests": worker.calls,
                "generations": worker.generation,
            }
            for device, worker in sorted(self._workers.items())
        }
        for device, stats in worker_stats.items():
            self._metrics.absorb(f"serve.worker:{device}", stats)
        slo_text = self.slo.table()
        return ServingReport(
            slo_text=slo_text,
            fingerprint=hashlib.sha256(slo_text.encode()).hexdigest(),
            makespan_us=self._now,
            admitted=set(self.ledger.admitted),
            completed=dict(self.ledger.completed),
            expired=set(self.ledger.expired),
            rejected_after_admit=set(self.ledger.rejected_after_admit),
            crashes=tuple(self.crashes),
            wrong_results=self.wrong_results,
            duplicates_avoided=self.duplicates_avoided,
            batcher_stats=self.batcher.stats,
            worker_stats=worker_stats,
            device_seconds=self._device_seconds(),
            scaling_events=tuple(self.scaling_events),
            scale_fingerprint=self.scale_fingerprint(),
            initial_live=self.initial_live,
            fleet_states=self.fleet_states(),
        )
