"""Deterministic fault injection: named sites threaded through the stack.

The paper's headline fault-isolation claims (section IV-D, figure 9) are
only as strong as the adversarial schedules they survive, so the stack
exposes *injection sites* — named points in the sRPC data path, the ring
buffer, the SPM recovery protocol, partition memory accesses and the mOS
heartbeat — where a :class:`FaultPlan` can drop, duplicate, corrupt or
reorder records, crash or hang a partition, or fail a partition in the
middle of another partition's recovery.

Design rules:

* **Zero cost when disarmed.**  Hooks guard on the module-level
  :data:`ACTIVE` injector being ``None`` and never touch the simulated
  clock, so with no plan armed every timing table regenerates
  byte-identical.
* **Deterministic when armed.**  Triggers are either ``nth`` (fire on the
  n-th hit of a site) or ``prob`` (fire with seeded probability); the
  per-plan :class:`random.Random` is the only randomness, so the same seed
  replays the same fault schedule.
* **Faults are modelled, not faked.**  A ``crash`` action calls the
  campaign's crash handler (``system.fail_partition``) and then lets the
  interrupted operation *continue*: the failure surfaces through the real
  proceed-trap machinery (stage-2 invalidation, ``PeerFailedSignal``),
  exactly as a concurrent hardware fault would.

This module deliberately imports nothing from the rest of the package so
that low-level modules (ring buffer, partition) can hook into it without
import cycles; :mod:`repro.faults`'s package ``__init__`` is lazy for the
same reason.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

# -- actions ----------------------------------------------------------------
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
REORDER = "reorder"
CRASH = "crash"
HANG = "hang"
TRACE = "trace"

ACTIONS = (DROP, DUPLICATE, CORRUPT, REORDER, CRASH, HANG, TRACE)

#: Actions that mangle the *data path* (a detectable ``ChannelError`` is an
#: acceptable outcome); everything else must surface as ``SRPCPeerFailure``.
CORRUPTION_ACTIONS = frozenset((DROP, DUPLICATE, CORRUPT, REORDER))

#: Every named site threaded through the stack.  Hooks fire these; plans
#: may only reference names listed here so a typo fails loudly.
SITES = (
    "ring.push",            # SharedRingBuffer.push (drop/duplicate/corrupt)
    "ring.pop",             # SharedRingBuffer.pop
    "srpc.enqueue",         # _Stream.enqueue (drop/duplicate/corrupt/reorder)
    "srpc.drain",           # _Stream.drain_one
    "srpc.expand",          # _Stream._expand_smem (mid-expansion faults)
    "spm.share.commit",     # SPM.share_pages, before mappings are installed
    "spm.share.committed",  # SPM.share_pages, after the grant is recorded
    "spm.recover.proceed",  # SPM recovery, after step 1 (invalidation)
    "spm.recover.reload",   # SPM recovery, after clear+reload
    "partition.read",       # Partition.read (any stage-2 mediated load)
    "partition.write",      # Partition.write (any stage-2 mediated store)
    "mos.tick",             # MicroOS heartbeat (hang suppression)
    "shim.spin",            # SpinLock.try_acquire (spin on shared memory)
    "llm.decode.step",      # LLMEngine decode iteration boundary (crash =
                            # partition dies mid-decode with live KV pages)
)


class FaultPlanError(Exception):
    """Malformed plan: unknown site/action, or arming conflict."""


@dataclass(frozen=True)
class FaultRule:
    """One ``(site, trigger, action)`` rule of a plan.

    ``nth`` fires on exactly the n-th hit of ``site`` (1-based);
    ``prob`` fires per-hit with the plan RNG.  ``target`` names the device
    whose partition a ``crash``/``hang`` affects (defaults to the hook's
    own device when it has one).
    """

    site: str
    action: str
    nth: Optional[int] = None
    prob: float = 0.0
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(f"unknown injection site {self.site!r}")
        if self.action not in ACTIONS:
            raise FaultPlanError(f"unknown fault action {self.action!r}")
        if self.nth is None and self.prob <= 0.0:
            raise FaultPlanError("rule needs an nth or prob trigger")

    def describe(self) -> str:
        trigger = f"nth={self.nth}" if self.nth is not None else f"p={self.prob:g}"
        suffix = f"->{self.target}" if self.target else ""
        return f"{self.action}@{self.site}[{trigger}]{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded fault schedule: deterministic given (seed, rules)."""

    seed: int
    rules: Tuple[FaultRule, ...]
    name: str = ""

    def actions(self) -> Set[str]:
        return {rule.action for rule in self.rules}

    @property
    def corruption_class(self) -> bool:
        """True if any rule mangles the data path (drop/dup/corrupt/reorder)."""
        return bool(self.actions() & CORRUPTION_ACTIONS)

    @property
    def crash_class(self) -> bool:
        return CRASH in self.actions() or HANG in self.actions()

    def describe(self) -> str:
        return " ".join(rule.describe() for rule in self.rules) or "clean"


class Injection:
    """What a hook must do at a site where a rule fired."""

    __slots__ = ("rule", "_injector")

    def __init__(self, rule: FaultRule, injector: "FaultInjector") -> None:
        self.rule = rule
        self._injector = injector

    @property
    def action(self) -> str:
        return self.rule.action

    def mangle(self, data: bytes) -> bytes:
        """Length-preserving corruption: flip one seeded byte."""
        if not data:
            return data
        rng = self._injector.rng
        index = rng.randrange(len(data))
        out = bytearray(data)
        out[index] ^= 0xFF
        return bytes(out)


class FaultInjector:
    """Executes one :class:`FaultPlan`: counts site hits, fires rules."""

    #: Crash handlers may themselves hit crash rules (crash-during-recovery);
    #: one level of nesting models concurrent failures, deeper recursion is
    #: cut off so probabilistic plans terminate.
    MAX_CRASH_DEPTH = 2

    def __init__(
        self,
        plan: FaultPlan,
        *,
        crash_handler: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.plan = plan
        self.crash_handler = crash_handler
        self.rng = random.Random(plan.seed)
        self.site_hits: Dict[str, int] = {}
        self.fired: List[Tuple[str, int, str]] = []  # (site, hit index, rule)
        self._rules_by_site: Dict[str, List[FaultRule]] = {}
        for rule in plan.rules:
            self._rules_by_site.setdefault(rule.site, []).append(rule)
        self._hung: Set[str] = set()
        self._crash_depth = 0

    # -- the one hot call --------------------------------------------------
    def fire(self, site: str, *, default_target: Optional[str] = None) -> Optional[Injection]:
        """Record a hit of ``site``; return the fired injection, if any.

        Crash and hang actions are executed here (handler call / hang-set
        update) and return ``None`` so the interrupted operation proceeds
        into the real trap machinery.
        """
        hits = self.site_hits.get(site, 0) + 1
        self.site_hits[site] = hits
        rules = self._rules_by_site.get(site)
        if not rules:
            return None
        chosen: Optional[FaultRule] = None
        for rule in rules:
            # Probabilistic rules consume RNG on *every* hit (even after a
            # match) so the schedule stays deterministic under replay.
            fired = rule.nth == hits if rule.nth is not None else (
                self.rng.random() < rule.prob
            )
            if fired and chosen is None:
                chosen = rule
        if chosen is None:
            return None
        self.fired.append((site, hits, chosen.describe()))
        if chosen.action == CRASH:
            self._do_crash(chosen.target or default_target)
            return None
        if chosen.action == HANG:
            target = chosen.target or default_target
            if target is not None:
                self._hung.add(target)
            return None
        return Injection(chosen, self)

    def _do_crash(self, target: Optional[str]) -> None:
        if target is None or self.crash_handler is None:
            return
        if self._crash_depth >= self.MAX_CRASH_DEPTH:
            return
        self._crash_depth += 1
        try:
            self.crash_handler(target)
        finally:
            self._crash_depth -= 1

    # -- hang bookkeeping --------------------------------------------------
    def is_hung(self, device_name: str) -> bool:
        return device_name in self._hung

    def clear_hang(self, device_name: str) -> None:
        """Called when the hung partition's recovery completes."""
        self._hung.discard(device_name)

    @property
    def hung(self) -> Tuple[str, ...]:
        return tuple(sorted(self._hung))


#: The armed injector.  Hooks guard on ``ACTIVE is not None`` — a plain
#: module-attribute check — so disarmed runs pay (almost) nothing.
ACTIVE: Optional[FaultInjector] = None


def arm(plan: FaultPlan, *, crash_handler: Optional[Callable[[str], None]] = None) -> FaultInjector:
    """Arm ``plan`` globally; only one plan may be armed at a time."""
    global ACTIVE
    if ACTIVE is not None:
        raise FaultPlanError("a fault plan is already armed")
    ACTIVE = FaultInjector(plan, crash_handler=crash_handler)
    return ACTIVE


def disarm() -> Optional[FaultInjector]:
    """Disarm the active plan (no-op when nothing is armed)."""
    global ACTIVE
    injector, ACTIVE = ACTIVE, None
    return injector


@contextmanager
def armed(
    plan: FaultPlan, *, crash_handler: Optional[Callable[[str], None]] = None
) -> Iterator[FaultInjector]:
    """``with armed(plan) as inj: ...`` — always disarms on exit."""
    injector = arm(plan, crash_handler=crash_handler)
    try:
        yield injector
    finally:
        disarm()


def fire(site: str, *, default_target: Optional[str] = None) -> Optional[Injection]:
    """Module-level convenience used by cold-path hooks."""
    if ACTIVE is None:
        return None
    return ACTIVE.fire(site, default_target=default_target)
