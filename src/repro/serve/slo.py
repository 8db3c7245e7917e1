"""Per-tenant SLO accounting.

Tracks every request's fate — admitted, rejected (by reason), completed,
expired, re-queued after a crash — plus completion latencies in simulated
microseconds, and renders the per-tenant summary through
:func:`repro.metrics.report.slo_table`.

Definitions (also in ``docs/serving.md``):

* **latency** — completion time minus arrival time, simulated µs; the
  percentiles use the deterministic nearest-rank method.
* **goodput** — deadline-met completions per simulated second of the
  tenant's own observation window (first arrival to last deadline), so a
  tenant's goodput is a function of its own stream only.
* **rejection rate** — rejected / offered.

Token-serving workloads additionally record per-token latencies:

* **TTFT** — time-to-first-token: first decoded token's emission time
  minus the request's arrival time (includes queueing + prefill).
* **ITL** — inter-token latency: the gap between consecutive token
  emissions of one sequence (excludes the first token).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from repro.metrics.report import slo_table, token_slo_table


def nearest_rank(sorted_values: List[float], pct: float) -> float:
    """The nearest-rank percentile (deterministic, no interpolation).

    The rank is ``ceil(pct/100 * n)`` computed *exactly*: ``pct`` is read
    as the decimal it prints as (``Fraction(str(pct))``), so non-integer
    percentiles like 99.9 never pick up a one-off rank from binary
    floating-point error (``99.9 * 1000 / 100`` is 999.0000000000001 in
    floats; the old ``-(-pct * n // 100)`` trick then ceils to 1000).
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    frac = Fraction(str(pct))
    rank = -((-n * frac.numerator) // (100 * frac.denominator))
    rank = max(1, min(n, rank))
    return sorted_values[rank - 1]


def _earliest(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    return a if b is None or a <= b else b


@dataclass
class SLOAccount:
    """Mutable per-tenant tally."""

    tenant: str
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    deadline_met: int = 0
    expired: int = 0
    requeued: int = 0
    duplicates_avoided: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    first_arrival_us: Optional[float] = None
    last_deadline_us: float = 0.0
    # -- per-token accounting (LLM serving; zero-cost for other workloads)
    sequences: int = 0
    finished_sequences: int = 0
    preempted_sequences: int = 0
    reprefills: int = 0
    tokens: int = 0
    ttft_us: List[float] = field(default_factory=list)
    itl_us: List[float] = field(default_factory=list)
    first_token_us: Optional[float] = None
    last_token_us: float = 0.0

    def merge(self, other: "SLOAccount") -> None:
        """Fold ``other``'s tally into this one (a cluster roll-up): the
        result equals one account fed this account's record stream then
        ``other``'s."""
        self.offered += other.offered
        self.admitted += other.admitted
        self.completed += other.completed
        self.deadline_met += other.deadline_met
        self.expired += other.expired
        self.requeued += other.requeued
        self.duplicates_avoided += other.duplicates_avoided
        for reason, count in other.rejected.items():
            self.rejected[reason] = self.rejected.get(reason, 0) + count
        self.latencies.extend(other.latencies)
        self.first_arrival_us = _earliest(self.first_arrival_us, other.first_arrival_us)
        self.last_deadline_us = max(self.last_deadline_us, other.last_deadline_us)
        self.sequences += other.sequences
        self.finished_sequences += other.finished_sequences
        self.preempted_sequences += other.preempted_sequences
        self.reprefills += other.reprefills
        self.tokens += other.tokens
        self.ttft_us.extend(other.ttft_us)
        self.itl_us.extend(other.itl_us)
        self.first_token_us = _earliest(self.first_token_us, other.first_token_us)
        self.last_token_us = max(self.last_token_us, other.last_token_us)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def percentile(self, pct: float) -> float:
        return nearest_rank(sorted(self.latencies), pct)

    @property
    def p99_us(self) -> float:
        """Numeric p99 latency (the ``p99_us`` row field unformatted) —
        the autoscaler benchmark compares these across fleet modes."""
        return self.percentile(99)

    @property
    def window_us(self) -> float:
        if self.first_arrival_us is None:
            return 0.0
        return max(0.0, self.last_deadline_us - self.first_arrival_us)

    @property
    def goodput_rps(self) -> float:
        window = self.window_us
        if window <= 0:
            return 0.0
        return self.deadline_met / (window / 1e6)

    @property
    def rejection_rate(self) -> float:
        if not self.offered:
            return 0.0
        return self.rejected_total / self.offered

    def row(self) -> Dict[str, object]:
        """One rendered table row (fixed formatting → byte-stable text)."""
        return {
            "tenant": self.tenant,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "deadline_met": self.deadline_met,
            "expired": self.expired,
            "requeued": self.requeued,
            "rejected": self.rejected_total,
            "reject_rate": f"{self.rejection_rate:.3f}",
            "p50_us": f"{self.percentile(50):.1f}",
            "p95_us": f"{self.percentile(95):.1f}",
            "p99_us": f"{self.percentile(99):.1f}",
            "goodput_rps": f"{self.goodput_rps:.3f}",
        }

    @property
    def tokens_per_s(self) -> float:
        """Decode throughput over the tenant's own token-emission window."""
        window = self.last_token_us - (self.first_token_us or 0.0)
        if self.first_token_us is None or window <= 0:
            return 0.0
        return self.tokens / (window / 1e6)

    def ttft_percentile(self, pct: float) -> float:
        return nearest_rank(sorted(self.ttft_us), pct)

    def itl_percentile(self, pct: float) -> float:
        return nearest_rank(sorted(self.itl_us), pct)

    def token_row(self) -> Dict[str, object]:
        """One rendered *token* table row (fixed formatting → byte-stable)."""
        return {
            "tenant": self.tenant,
            "sequences": self.sequences,
            "finished": self.finished_sequences,
            "preempted": self.preempted_sequences,
            "reprefills": self.reprefills,
            "tokens": self.tokens,
            "ttft_p50_us": f"{self.ttft_percentile(50):.1f}",
            "ttft_p99_us": f"{self.ttft_percentile(99):.1f}",
            "itl_p50_us": f"{self.itl_percentile(50):.1f}",
            "itl_p99_us": f"{self.itl_percentile(99):.1f}",
            "tokens_per_s": f"{self.tokens_per_s:.3f}",
        }


class SLOTracker:
    """All tenants' accounts plus the campaign-style deterministic export."""

    def __init__(self) -> None:
        self._accounts: Dict[str, SLOAccount] = {}

    def account(self, tenant: str) -> SLOAccount:
        if tenant not in self._accounts:
            self._accounts[tenant] = SLOAccount(tenant=tenant)
        return self._accounts[tenant]

    # -- recording ---------------------------------------------------------
    def record_offered(self, request) -> None:
        acct = self.account(request.tenant)
        acct.offered += 1
        if acct.first_arrival_us is None or request.arrival_us < acct.first_arrival_us:
            acct.first_arrival_us = request.arrival_us
        acct.last_deadline_us = max(acct.last_deadline_us, request.deadline_us)

    def record_admitted(self, request) -> None:
        self.account(request.tenant).admitted += 1

    def record_rejected(self, request, reason: str) -> None:
        acct = self.account(request.tenant)
        acct.rejected[reason] = acct.rejected.get(reason, 0) + 1

    def record_completed(self, request, completion_us: float) -> None:
        acct = self.account(request.tenant)
        acct.completed += 1
        acct.latencies.append(completion_us - request.arrival_us)
        if completion_us <= request.deadline_us:
            acct.deadline_met += 1

    def record_expired(self, request) -> None:
        self.account(request.tenant).expired += 1

    def record_requeued(self, request) -> None:
        self.account(request.tenant).requeued += 1

    def record_duplicate_avoided(self, request) -> None:
        self.account(request.tenant).duplicates_avoided += 1

    # -- per-token recording (LLM serving) --------------------------------
    def record_sequence(self, request) -> None:
        self.account(request.tenant).sequences += 1

    def record_sequence_finished(self, request) -> None:
        self.account(request.tenant).finished_sequences += 1

    def record_sequence_preempted(self, request) -> None:
        """The sequence's partition crashed mid-decode; its KV pages were
        scrubbed and it will be re-prefilled (exactly once)."""
        self.account(request.tenant).preempted_sequences += 1

    def record_reprefill(self, request) -> None:
        self.account(request.tenant).reprefills += 1

    def record_token(
        self, request, emit_us: float, *, prev_token_us: Optional[float]
    ) -> None:
        """One decoded token at virtual time ``emit_us``.

        ``prev_token_us`` is the same sequence's previous emission (None
        for the first token): first tokens record TTFT against arrival,
        later tokens record the inter-token gap.
        """
        acct = self.account(request.tenant)
        acct.tokens += 1
        if acct.first_token_us is None or emit_us < acct.first_token_us:
            acct.first_token_us = emit_us
        acct.last_token_us = max(acct.last_token_us, emit_us)
        if prev_token_us is None:
            acct.ttft_us.append(emit_us - request.arrival_us)
        else:
            acct.itl_us.append(emit_us - prev_token_us)

    # -- export ------------------------------------------------------------
    def accounts(self) -> Dict[str, SLOAccount]:
        return dict(self._accounts)

    def percentiles(self, pct: float = 99.0) -> Dict[str, float]:
        """tenant -> numeric nearest-rank latency percentile, every tenant
        with at least one completion (deterministic iteration order)."""
        return {
            name: self._accounts[name].percentile(pct)
            for name in sorted(self._accounts)
            if self._accounts[name].latencies
        }

    def table(self) -> str:
        """The per-tenant SLO summary, sorted by tenant name."""
        return slo_table(
            [self._accounts[name].row() for name in sorted(self._accounts)]
        )

    def fingerprint(self) -> str:
        """Digest of the table — byte-identical across same-seed runs."""
        return hashlib.sha256(self.table().encode()).hexdigest()

    def token_table(self) -> str:
        """The per-tenant token SLO summary (TTFT/ITL/tokens-per-second),
        sorted by tenant name.  Separate from :meth:`table` so request-
        level fingerprints recorded by earlier benchmarks never move."""
        return token_slo_table(
            [self._accounts[name].token_row() for name in sorted(self._accounts)]
        )

    def token_fingerprint(self) -> str:
        """Digest of the token table — byte-identical across replays."""
        return hashlib.sha256(self.token_table().encode()).hexdigest()
