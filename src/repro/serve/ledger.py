"""The request ledger: the one place an admitted request settles.

However partitions crash under it, every admitted request settles
exactly once: completed, expired, or rejected after admission.  Both
serving engines route each admission, re-queue and settlement through a
:class:`RequestLedger`; every report audits the rule with
:func:`exactly_once_violations`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Mapping, Set

from repro.obs.span import NO_SPAN
from repro.serve.admission import REJECT_NO_PARTITION

#: The settlement sets, in the order the audit reports overlaps.
_TERMINAL = ("completed", "expired", "rejected_after_admit")


class RequestLedger:
    """Admitted requests, their settlements and open root spans.  Every
    terminal state settles in one order: SLO record, admission release,
    root-span end, then the trace's report to the tail sampler."""

    def __init__(self, admission, slo, obs) -> None:
        self._admission = admission
        self._slo = slo
        self._obs = obs
        self.source = None
        """The bound :class:`~repro.obs.telemetry.TelemetrySource`, if any."""
        self.admitted: Set[str] = set()
        self.completed: Dict[str, float] = {}
        """rid -> completion instant (simulated us)."""
        self.expired: Set[str] = set()
        self.rejected_after_admit: Set[str] = set()
        self._request_spans: Dict[str, object] = {}

    def begin(self, name: str, request, **attrs):
        """Open ``request``'s root span (NO_SPAN while spans are off).  Roots
        live on the engine's virtual event axis, so the arrival instant is
        passed explicitly, never read off the platform clock."""
        return self._obs.begin(
            name, category="serve", detached=True, ts=request.arrival_us,
            rid=request.rid, tenant=request.tenant, **attrs,
        )

    def reject(self, request, reason: str, span=NO_SPAN) -> None:
        """Admission refused ``request``: its one-span trace ends now, and
        the tail sampler drops it at once."""
        self._slo.record_rejected(request, reason)
        self._close(
            span, request, request.arrival_us, "rejected",
            {"outcome": "rejected", "reason": reason},
        )

    def admit(self, request, span=NO_SPAN) -> None:
        self._slo.record_admitted(request)
        self.admitted.add(request.rid)
        if span is not NO_SPAN:
            self._request_spans[request.rid] = span

    def context(self, rid: str):
        """``rid``'s open root span context (None when untraced)."""
        span = self._request_spans.get(rid)
        return None if span is None else span.context

    def requeue(self, request):
        """A crash sent ``request`` back for placement: count it, pin its
        trace in the tail sampler and return its root context."""
        self._slo.record_requeued(request)
        context = self.context(request.rid)
        if self.source is not None and context is not None:
            self.source.note_recovery(context.trace_id)
        return context

    def settled(self, rid: str) -> bool:
        return (
            rid in self.completed or rid in self.expired
            or rid in self.rejected_after_admit
        )

    def complete(self, request, at_us: float, *, sampled="completed", **attrs) -> None:
        """``attrs`` annotate the root span; the sampler sees ``sampled``."""
        self.completed[request.rid] = at_us
        self._slo.record_completed(request, at_us)
        self._settle(request, at_us, sampled, attrs)

    def expire(self, request, at_us: float) -> None:
        self.expired.add(request.rid)
        self._slo.record_expired(request)
        self._settle(request, at_us, "expired", {"outcome": "expired"})

    def reject_after_admit(self, request, at_us: float) -> None:
        """No partition manages the device ``request`` is pinned to."""
        self.rejected_after_admit.add(request.rid)
        self._slo.record_rejected(request, REJECT_NO_PARTITION)
        attrs = {"outcome": "rejected", "reason": REJECT_NO_PARTITION}
        self._settle(request, at_us, "failed", attrs)

    def _settle(self, request, at_us: float, sampled: str, attrs) -> None:
        self._admission.settle(request)
        span = self._request_spans.pop(request.rid, NO_SPAN)
        self._close(span, request, at_us, sampled, attrs)

    def _close(self, span, request, at_us: float, sampled: str, attrs) -> None:
        if span is NO_SPAN:
            return
        self._obs.end(span, ts=at_us, **attrs)
        if self.source is not None:
            self.source.request_done(
                span.context.trace_id, latency_us=at_us - request.arrival_us,
                outcome=sampled, tenant=request.tenant,
            )


def _union(parts: List):
    """A lone node's collection as-is (no copy), else a merged set."""
    return parts[0] if len(parts) == 1 else set().union(*parts)


def exactly_once_violations(
    nodes: Mapping[str, object], *, duplicates_avoided: int = 0, orphaned: int = 0
) -> List[str]:
    """One line per violation (empty = clean) of "every admitted rid settles
    exactly once on exactly one node".  ``nodes`` maps node name -> anything
    with a ledger's settlement fields, e.g. a report; ``duplicates_avoided``
    counts settled requests that came back to run, ``orphaned`` migrated
    requests no node took."""
    settled = {k: _union([getattr(n, k) for n in nodes.values()]) for k in _TERMINAL}
    completed = settled["completed"]
    problems: List[str] = []
    if sum(len(n.completed) for n in nodes.values()) > len(completed):
        for rid in sorted(completed):
            on = [name for name, n in nodes.items() if rid in n.completed]
            if len(on) > 1:
                problems.append(f"{rid}: completed on {len(on)} nodes {on}")
    for a, b in combinations(_TERMINAL, 2):
        for rid in sorted(rid for rid in settled[a] if rid in settled[b]):
            problems.append(f"{rid}: both {a} and {b}")
    if orphaned:
        problems.append(f"{orphaned} migrated request(s) orphaned")
    admitted = _union([n.admitted for n in nodes.values()])
    lost = (rid for rid in admitted if not any(rid in s for s in settled.values()))
    for rid in sorted(lost):
        problems.append(f"{rid}: admitted but never completed nor expired")
    for rid in sorted(rid for rid in completed if rid not in admitted):
        problems.append(f"{rid}: completed without admission")
    if duplicates_avoided:
        problems.append(f"{duplicates_avoided} completed request(s) were re-queued")
    return problems
