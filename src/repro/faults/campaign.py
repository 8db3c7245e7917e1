"""Seeded fault-injection campaigns over the figure-9 failover workload.

A campaign executes one workload under N :class:`~repro.faults.injector.
FaultPlan`\\ s (each a fresh :class:`~repro.systems.cronus.CronusSystem`)
and checks the paper's fault-isolation invariants after every plan:

1. **Progress** — every task eventually completes work, and tasks on
   surviving partitions keep completing after a peer crash (figure 9).
2. **Clean termination** — every partition ends READY (recovery always
   completes) and within the proceed-trap bound.
3. **No crashed-information leak** — pages of grants torn down by a
   failure are scrubbed before anyone can read them again (attack A3),
   and no partition retains a valid mapping of shared memory that is not
   backed by an active grant (attack A1).
4. **Failure signalling** — established sRPC streams surface peer crashes
   as :class:`~repro.rpc.channel.SRPCPeerFailure`; a bare ``ChannelError``
   or an unbounded spin (``LockError``) is a violation (attack A2).
5. **Stage-2/TLB consistency** — no TLB (CPU or SMMU) caches a
   translation whose backing entry is gone, invalid or lacks permission.

Determinism: the master seed derives every plan, every plan seeds its own
injector RNG and workload data, and no wall-clock or unseeded randomness
enters the run — the same seed replays the identical pass/fail matrix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import injector as _inj
from repro.faults.injector import CRASH, CORRUPT, DROP, DUPLICATE, HANG, REORDER, FaultPlan, FaultRule
from repro.faults.watchdog import Watchdog
from repro.metrics.report import campaign_matrix, site_hit_table
from repro.obs.span import NO_SPAN
from repro.secure.partition import PartitionState
from repro.secure.spm import RecoveryReport

#: Recovery must stay well under the paper's reboot contrast (figure 9
#: keeps proceed+clear+reload in the hundreds of milliseconds).
PROCEED_TRAP_BOUND_US = 1_000_000.0

_CRASH_SITES = (
    "srpc.enqueue",
    "srpc.drain",
    "ring.push",
    "ring.pop",
    "partition.write",
    "partition.read",
)
_CORRUPT_SITES = ("srpc.enqueue", "ring.push")
_TARGETS = ("gpu0", "gpu1")

_PLAN_KINDS = (
    "crash",
    "hang",
    "drop",
    "duplicate",
    "corrupt",
    "reorder",
    "crash-during-recovery",
    "crash-at-share",
    "double-crash",
    "clean",
)


def generate_plans(master_seed: int = 0, count: int = 10) -> List[FaultPlan]:
    """Derive ``count`` plans deterministically from ``master_seed``.

    Plan kinds round-robin through the catalogue (so even a 10-plan quick
    campaign covers every fault family) while sites, triggers and targets
    are drawn from the master RNG.
    """
    rng = random.Random(master_seed)
    plans: List[FaultPlan] = []
    for i in range(count):
        kind = _PLAN_KINDS[i % len(_PLAN_KINDS)]
        seed = rng.randrange(2**32)
        if kind == "crash":
            rules: Tuple[FaultRule, ...] = (
                FaultRule(
                    site=rng.choice(_CRASH_SITES),
                    action=CRASH,
                    nth=rng.randint(3, 40),
                    target=rng.choice(_TARGETS),
                ),
            )
        elif kind == "hang":
            rules = (
                FaultRule(
                    site="mos.tick",
                    action=HANG,
                    nth=rng.randint(2, 12),
                    target=rng.choice(_TARGETS),
                ),
            )
        elif kind in (DROP, DUPLICATE, CORRUPT):
            rules = (
                FaultRule(
                    site=rng.choice(_CORRUPT_SITES),
                    action=kind,
                    nth=rng.randint(2, 30),
                ),
            )
        elif kind == "reorder":
            rules = (
                FaultRule(site="srpc.enqueue", action=REORDER, nth=rng.randint(2, 20)),
            )
        elif kind == "crash-during-recovery":
            first, second = rng.sample(_TARGETS, 2)
            rules = (
                FaultRule(
                    site=rng.choice(("srpc.enqueue", "partition.write")),
                    action=CRASH,
                    nth=rng.randint(3, 25),
                    target=first,
                ),
                FaultRule(site="spm.recover.proceed", action=CRASH, nth=1, target=second),
            )
        elif kind == "crash-at-share":
            rules = (
                FaultRule(
                    site=rng.choice(("spm.share.commit", "spm.share.committed")),
                    action=CRASH,
                    nth=rng.randint(1, 4),
                    target=rng.choice(_TARGETS),
                ),
            )
        elif kind == "double-crash":
            a, b = rng.sample(_TARGETS, 2)
            rules = (
                FaultRule(site="srpc.enqueue", action=CRASH, nth=rng.randint(3, 20), target=a),
                FaultRule(site="srpc.enqueue", action=CRASH, nth=rng.randint(21, 45), target=b),
            )
        else:  # clean control plan: no faults, everything must stay green
            rules = ()
        plans.append(FaultPlan(seed=seed, rules=rules, name=f"plan-{i:03d}-{kind}"))
    return plans


# -- the figure-9 workload under injection ----------------------------------
MATRIX_SIZE = 8
"""Side of each task's square matmul operands."""
WATCHDOG_EVERY = 3
"""The watchdog samples once every this many workload steps."""
WATCHDOG_INTERVAL_US = 50_000.0
"""The watchdog's heartbeat interval."""


def make_figure9_system(*, num_gpus: int = 2, trace: bool = False, obs: bool = False):
    """The figure-9 testbed: a fresh two-GPU :class:`CronusSystem` with the
    CUDA kernel library registered.

    This is the workload factory every crash-under-load harness shares —
    the fault campaign's :func:`run_plan` and the serving benchmark's
    crash scenario both build their systems here instead of copy-pasting
    the two-GPU setup.  ``obs=True`` turns on causal spans and the typed
    metrics registry (``python -m repro obs`` runs the failover experiment
    this way).
    """
    import repro.workloads  # noqa: F401  (registers the matmul kernel)
    from repro.systems import CronusSystem, TestbedConfig

    return CronusSystem(TestbedConfig(num_gpus=num_gpus), trace=trace, obs=obs)


@dataclass
class WorkloadReport:
    """Everything the invariant checker needs about one plan's run."""

    exceptions: List[Tuple[str, str, str]] = field(default_factory=list)
    """(task, phase 'setup'|'call', exception class name)."""
    wrong_results: int = 0
    crashes: List[str] = field(default_factory=list)  # device names, in order
    first_crash_us: Optional[float] = None
    recoveries: List[RecoveryReport] = field(default_factory=list)


class _MatmulTask:
    """One figure-9 matrix task pinned to a GPU, resubmitting after faults."""

    def __init__(self, name: str, device: str, size: int, seed: int) -> None:
        self.name = name
        self.device = device
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((size, size)).astype(np.float32)
        self.expected = self.a @ self.a
        self.runtime = None
        self.handles: Tuple = ()
        self.completions: List[float] = []
        self.resubmissions = 0
        self._obs = None
        self._root = NO_SPAN  # the open attempt span
        self._first_context = None  # attempt 1's context; resubmits link to it

    def start(self, system) -> None:
        obs = self._obs = system.platform.obs
        self._root = obs.begin(
            f"task.{self.name}",
            category="task",
            parent=self._first_context,
            detached=True,
            gpu=self.device,
            attempt=self.resubmissions + 1,
        )
        if self._first_context is None:
            self._first_context = self._root.context
        with obs.attach(self._root.context):
            self.runtime = system.runtime(
                cuda_kernels=("matmul",),
                gpu_name=self.device,
                owner=f"{self.name}-{self.resubmissions}",
            )
            ha = self.runtime.cudaMalloc(self.a.shape)
            hc = self.runtime.cudaMalloc(self.a.shape)
            self.runtime.cudaMemcpyH2D(ha, self.a)
        self.handles = (ha, hc)

    def iterate(self, system) -> bool:
        """One matmul + sync; returns False on a silently wrong result."""
        ha, hc = self.handles
        with system.platform.obs.attach(self._root.context):
            self.runtime.cudaLaunchKernel("matmul", [ha, ha, hc])
            out = self.runtime.cudaMemcpyD2H(hc)
        self.completions.append(system.clock.now)
        return (
            isinstance(out, np.ndarray)
            and out.shape == self.expected.shape
            and bool(np.allclose(out, self.expected, atol=1e-2))
        )

    def abandon(self) -> None:
        """Drop the (failed) runtime; the next start is a resubmission."""
        if self._obs is not None:
            self._obs.end(self._root, outcome="abandoned")
            self._root = NO_SPAN
        self.runtime = None
        self.handles = ()
        self.resubmissions += 1


class FailoverWorkload:
    """Two matrix tasks on two GPU partitions, with watchdog supervision.

    The loop mirrors figure 9: tasks iterate, heartbeats tick, the
    watchdog samples on an interval, crashed tasks are resubmitted once
    their partition's background recovery window has elapsed.  A settle
    phase at the end gives every injected fault time to play out so the
    invariant checks observe a quiesced system.
    """

    def __init__(
        self,
        *,
        steps: int = 10,
        settle_steps: int = 6,
    ) -> None:
        self.steps = steps
        self.settle_steps = settle_steps

    def run(self, system, plan: FaultPlan, injector, report: WorkloadReport,
            ready_at: Dict[str, float]) -> List[_MatmulTask]:
        tasks = [
            _MatmulTask("task-a", "gpu0", MATRIX_SIZE, plan.seed ^ 0xA),
            _MatmulTask("task-b", "gpu1", MATRIX_SIZE, plan.seed ^ 0xB),
        ]
        watchdog = Watchdog(system, interval_us=WATCHDOG_INTERVAL_US)
        watchdog.observe()  # baseline sample
        for step in range(self.steps + self.settle_steps):
            for mos in system.moses.values():
                mos.tick()
            settle = step >= self.steps
            if settle or step % WATCHDOG_EVERY == WATCHDOG_EVERY - 1:
                self._observe(watchdog, system, injector, report, ready_at, tasks)
            for task in tasks:
                self._step_task(task, system, report, ready_at)
        return tasks

    def _observe(self, watchdog, system, injector, report, ready_at, tasks) -> None:
        for rec in watchdog.observe(background=True):
            device = system.spm.partition(rec.partition).device.name
            report.recoveries.append(rec)
            ready_at[device] = system.clock.now + rec.total_us
            if injector is not None:
                injector.clear_hang(device)
            for task in tasks:
                if task.device == device and task.runtime is not None:
                    # Its enclaves were torn down by the hang recovery.
                    task.abandon()

    def _step_task(self, task, system, report, ready_at) -> None:
        if task.runtime is None:
            partition = system.moses[task.device].partition
            if (
                partition.state is not PartitionState.READY
                or system.clock.now < ready_at.get(task.device, 0.0)
            ):
                return  # recovery window still open; resubmit later
            try:
                task.start(system)
            except Exception as exc:
                report.exceptions.append((task.name, "setup", type(exc).__name__))
                task.abandon()
                return
        try:
            if not task.iterate(system):
                report.wrong_results += 1
        except Exception as exc:
            report.exceptions.append((task.name, "call", type(exc).__name__))
            task.abandon()


# -- invariants --------------------------------------------------------------
def _tlb_violations(table) -> List[str]:
    """Every cached TLB line must match a live, permitted table entry."""
    from repro.hw.pagetable import PagePermission

    out = []
    for (page, write), phys in table.tlb.items():
        entry = table.entry(page)
        if entry is None or not entry.valid or entry.phys_page != phys:
            out.append(f"{table.name}: TLB caches page {page:#x} without valid backing")
            continue
        needed = PagePermission.W if write else PagePermission.R
        if not entry.perm & needed:
            out.append(f"{table.name}: TLB caches page {page:#x} without permission")
    return out


def check_invariants(
    system, plan: FaultPlan, report: WorkloadReport, tasks: Sequence[_MatmulTask]
) -> List[str]:
    """All fault-isolation invariants; returns violation descriptions."""
    violations: List[str] = []
    spm = system.spm

    # 1. progress: every task got work done; survivors never stalled.
    for task in tasks:
        if not task.completions:
            violations.append(f"{task.name}: no progress at all")
    if report.first_crash_us is not None:
        crashed_devices = set(report.crashes)
        for task in tasks:
            if task.device in crashed_devices or not task.completions:
                continue
            if not any(t > report.first_crash_us for t in task.completions):
                violations.append(f"{task.name}: survivor stalled after peer crash")

    # 2. clean termination within the proceed-trap bound.
    for mos in system.moses.values():
        if mos.partition.state is not PartitionState.READY:
            violations.append(f"{mos.partition.name}: not READY at campaign end")
    for rec in report.recoveries:
        if rec.total_us > PROCEED_TRAP_BOUND_US:
            violations.append(
                f"{rec.partition}: recovery {rec.total_us:.0f}us exceeds bound"
            )

    # 3a. no valid shared mapping without an active backing grant (A1).
    for partition in spm.partitions():
        for page, entry in partition.stage2.entries():
            if not entry.valid or entry.shared_with is None:
                continue
            backed = any(
                g.active and page in g.pages and g.involves(partition.name)
                for g in spm.grants
            )
            if not backed:
                violations.append(
                    f"{partition.name}: stale shared mapping of page {page:#x}"
                )

    # 3b. crashed-information leak: pages of grants torn down around a
    # failure must be scrubbed once nobody owns them (A3).
    crashed_partitions = {f"part-{d}" for d in report.crashes}
    crashed_partitions.update(r.partition for r in report.recoveries)
    for grant in spm.grants:
        if grant.active or not any(grant.involves(p) for p in crashed_partitions):
            continue
        for page in grant.pages:
            if spm.owner_of(page) is not None:
                continue  # recycled into a live allocation since
            if not system.platform.memory.page_is_zero(page):
                violations.append(
                    f"crashed-partition page {page:#x} readable after teardown"
                )
                break

    # 4. failure signalling discipline.
    for task_name, phase, exc_name in report.exceptions:
        if exc_name == "LockError":
            violations.append(f"{task_name}: unbounded spin (deadlock-equivalent)")
        elif phase == "call" and exc_name == "PeerFailedSignal":
            violations.append(f"{task_name}: raw PeerFailedSignal escaped the channel")
        elif not plan.corruption_class:
            # With no data-path mangling in the plan, the only legitimate
            # mid-stream failure is the peer-failure signal; a bare
            # ChannelError here means a crash was misdiagnosed as stream
            # corruption.
            if phase == "call" and exc_name != "SRPCPeerFailure":
                violations.append(
                    f"{task_name}: {exc_name} on peer failure (want SRPCPeerFailure)"
                )
            elif phase == "setup" and exc_name not in (
                "SRPCPeerFailure",
                "ChannelError",
                "SPMError",
                "PeerFailedSignal",
                "ExecutionError",
            ):
                violations.append(f"{task_name}: unexpected setup failure {exc_name}")
        if not plan.rules:
            violations.append(f"{task_name}: {exc_name} under a clean plan")
    if report.wrong_results and not plan.corruption_class:
        violations.append(f"silent wrong results x{report.wrong_results}")

    # 5. stage-2 and SMMU TLB consistency.
    for partition in spm.partitions():
        violations.extend(_tlb_violations(partition.stage2))
        violations.extend(
            _tlb_violations(system.platform.smmu.table_for(partition.device.name))
        )
    return violations


# -- campaign runner ---------------------------------------------------------
@dataclass(frozen=True)
class PlanResult:
    """Outcome of one plan: verdict, violations, and injection telemetry."""

    name: str
    seed: int
    description: str
    passed: bool
    violations: Tuple[str, ...]
    site_hits: Tuple[Tuple[str, int], ...]
    fired: Tuple[Tuple[str, int, str], ...]
    crashes: Tuple[str, ...]
    recoveries: int
    completions: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class CampaignResult:
    """All plan results plus aggregate reporting helpers."""

    results: Tuple[PlanResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> Tuple[PlanResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def site_hits(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for r in self.results:
            for site, hits in r.site_hits:
                total[site] = total.get(site, 0) + hits
        return total

    def matrix(self) -> str:
        """The pass/fail matrix plus per-site hit counters, as text."""
        return (
            campaign_matrix(self.results)
            + "\n\n"
            + site_hit_table(self.site_hits())
        )

    def fingerprint(self) -> str:
        """Digest of the full matrix — byte-identical across same-seed runs."""
        return hashlib.sha256(self.matrix().encode()).hexdigest()


def run_plan(
    plan: FaultPlan, *, workload: Optional[FailoverWorkload] = None
) -> PlanResult:
    """Execute one plan on a fresh figure-9 system and check every invariant."""
    workload = workload or FailoverWorkload()
    system = make_figure9_system()
    report = WorkloadReport()
    ready_at: Dict[str, float] = {}

    def crash_handler(device: str) -> None:
        mos = system.moses.get(device)
        if mos is None or mos.partition.state is not PartitionState.READY:
            return  # already failed / mid-recovery: nothing new to crash
        if report.first_crash_us is None:
            report.first_crash_us = system.clock.now
        report.crashes.append(device)
        rec = system.fail_partition(device, background=True)
        report.recoveries.append(rec)
        ready_at[device] = system.clock.now + rec.total_us

    with _inj.armed(plan, crash_handler=crash_handler) as injector:
        tasks = workload.run(system, plan, injector, report, ready_at)
    # Invariants are checked disarmed: post-run probes (memory reads, TLB
    # walks) must neither trip rules nor perturb the hit counters.
    violations = check_invariants(system, plan, report, tasks)
    return PlanResult(
        name=plan.name,
        seed=plan.seed,
        description=plan.describe(),
        passed=not violations,
        violations=tuple(violations),
        site_hits=tuple(sorted(injector.site_hits.items())),
        fired=tuple(injector.fired),
        crashes=tuple(report.crashes),
        recoveries=len(report.recoveries),
        completions=tuple((t.name, len(t.completions)) for t in tasks),
    )


def run_campaign(
    plans: Optional[Sequence[FaultPlan]] = None,
    *,
    seed: int = 0,
    count: int = 10,
    workload: Optional[FailoverWorkload] = None,
) -> CampaignResult:
    """Run ``plans`` (or ``count`` generated ones) and collect the matrix."""
    if plans is None:
        plans = generate_plans(seed, count)
    results = tuple(run_plan(plan, workload=workload) for plan in plans)
    return CampaignResult(results=results)
