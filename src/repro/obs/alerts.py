"""Multi-window burn-rate alerting over the virtual-time store.

Classic SRE burn-rate alerting evaluates the same SLI over a *fast* and
a *slow* window and pages only when **both** breach: the fast window
gives detection latency, the slow window suppresses one-scrape blips.
:class:`AlertEngine` implements exactly that over
:class:`~repro.obs.timeseries.TimeSeriesStore` series, with every
window expressed in virtual microseconds so alerts land at deterministic
virtual timestamps and the alert log replays byte-for-byte.

Rules (:class:`AlertRule`) name a store series — with an optional single
``*`` wildcard whose match becomes a label, e.g. ``slo:*.p99_us``
matching every tenant — and one of three evaluation modes:

* ``max``   — the max sample in the window exceeds the threshold;
* ``sum``   — the window total exceeds the threshold;
* ``ratio`` — window total divided by a denominator series' window
  total exceeds the threshold (rejection-rate style rules).

Alerts are typed, numbered by a monotonic counter, deduplicated per
``(rule, series key)`` episode (a firing rule stays *active* and does
not re-fire until it clears).  The series key includes any ``node=``
prefix, so the same tenant on two cluster nodes is two independent
episodes: node1 clearing never discards node0's active page, and a
breach starting on a second node pages again instead of hiding under
the first — fired alerts carry a ``node`` label to tell them apart.
Alerts carry exemplar trace IDs resolved through
the tail sampler plus — for node-death pages — the retained recovery
Chrome trace, which :meth:`AlertEngine.dump_recovery_traces` writes to
disk with the alert annotated into the trace itself.

Node death is not a windowed signal (a dead node stops emitting); it is
delivered out-of-band via :meth:`AlertEngine.node_killed` and converted
to a ``page`` alert at the next evaluation, which bounds detection
latency to one scrape interval by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.timeseries import TimeSeriesStore, _fmt_value

PAGE = "page"
TICKET = "ticket"

_MODES = ("max", "sum", "ratio")

LabelSet = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class AlertRule:
    """One burn-rate rule: fire when the series breaches ``threshold``
    over *both* the fast and the slow window."""

    name: str
    series: str
    threshold: float
    fast_window_us: float
    slow_window_us: float
    mode: str = "max"
    denom: Optional[str] = None
    label: str = "series"
    severity: str = TICKET
    min_denom: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown alert mode {self.mode!r}")
        if self.mode == "ratio" and self.denom is None:
            raise ValueError(f"rule {self.name!r}: ratio mode needs a denom series")
        if self.series.count("*") > 1:
            raise ValueError(f"rule {self.name!r}: at most one '*' wildcard")
        if self.fast_window_us > self.slow_window_us:
            raise ValueError(
                f"rule {self.name!r}: fast window must not exceed slow window"
            )


@dataclass(frozen=True)
class Alert:
    """A fired alert — every field deterministic under replay."""

    alert_id: int
    t_us: float
    rule: str
    severity: str
    labels: LabelSet
    value: float
    threshold: float
    fast_window_us: float
    slow_window_us: float
    exemplar_trace_ids: Tuple[int, ...] = ()
    recovery_trace: Optional[dict] = field(default=None, compare=False, repr=False)

    def line(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        exemplars = ",".join(str(t) for t in self.exemplar_trace_ids) or "-"
        trace = " +recovery-trace" if self.recovery_trace is not None else ""
        return (
            f"#{self.alert_id} {self.t_us:.3f}us [{self.severity}] "
            f"{self.rule}{{{labels}}} value={_fmt_value(self.value)} "
            f"threshold={_fmt_value(self.threshold)} "
            f"windows={self.fast_window_us:.0f}/{self.slow_window_us:.0f}us "
            f"exemplars={exemplars}{trace}"
        )


def default_rules(
    *,
    scrape_interval_us: float,
    p99_slo_us: float = 200_000.0,
    rejection_ratio: float = 0.5,
) -> Tuple[AlertRule, ...]:
    """The stock rule set the telemetry pipeline installs: per-tenant
    p99 burn, rejection-rate spike, scrub violations, KV-cache leaks.
    Fast window = 2 scrapes, slow = 6 (both must breach to fire)."""
    fast = 2 * scrape_interval_us
    slow = 6 * scrape_interval_us
    return (
        AlertRule(
            name="tenant-p99-burn",
            series="slo:*.p99_us",
            label="tenant",
            mode="max",
            threshold=p99_slo_us,
            fast_window_us=fast,
            slow_window_us=slow,
            severity=PAGE,
        ),
        AlertRule(
            name="rejection-spike",
            series="slo:*.rejected",
            denom="slo:*.offered",
            label="tenant",
            mode="ratio",
            threshold=rejection_ratio,
            fast_window_us=fast,
            slow_window_us=slow,
            min_denom=8.0,
            severity=TICKET,
        ),
        AlertRule(
            name="scrub-violation",
            series="counter:cluster/scrub_violations",
            mode="sum",
            threshold=0.0,
            fast_window_us=slow,
            slow_window_us=slow,
            severity=PAGE,
        ),
        AlertRule(
            name="llm-scrub-violation",
            series="counter:llm/scrub_violations",
            mode="sum",
            threshold=0.0,
            fast_window_us=slow,
            slow_window_us=slow,
            severity=PAGE,
        ),
        AlertRule(
            name="kv-cache-leak",
            series="counter:llm/kv_leaks",
            mode="sum",
            threshold=0.0,
            fast_window_us=slow,
            slow_window_us=slow,
            severity=PAGE,
        ),
    )


class AlertEngine:
    """Evaluates burn-rate rules against the store at every scrape."""

    NODE_DEATH_RULE = "node-death"

    def __init__(
        self,
        store: TimeSeriesStore,
        rules: Sequence[AlertRule] = (),
        *,
        exemplar_source: Optional[Callable[[AlertRule, LabelSet], Tuple[int, ...]]] = None,
    ) -> None:
        self.store = store
        self.rules: List[AlertRule] = list(rules)
        self.alerts: List[Alert] = []
        self.exemplar_source = exemplar_source
        self._next_id = 1
        self._active: Set[Tuple[str, LabelSet]] = set()
        self._pending_deaths: List[Tuple[float, str, Optional[dict]]] = []
        # Incremental pattern-match memo: store keys only ever
        # accumulate, so each pattern keeps (keys consumed from the
        # store's creation log, sorted matches) and scans only the keys
        # that appeared since its last evaluation.
        self._match_cache: Dict[str, Tuple[int, List[Tuple[str, str]]]] = {}

    # -- out-of-band signals -------------------------------------------------
    def node_killed(
        self, t_us: float, node: str, *, recovery_trace: Optional[dict] = None
    ) -> None:
        """Queue a node-death page; it fires at the next evaluation, so
        detection latency is at most one scrape interval."""
        self._pending_deaths.append((t_us, node, recovery_trace))

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, t_us: float) -> List[Alert]:
        fired: List[Alert] = []
        for killed_at, node, trace in self._pending_deaths:
            fired.append(
                self._fire(
                    rule_name=self.NODE_DEATH_RULE,
                    severity=PAGE,
                    t_us=t_us,
                    labels=(("node", node), ("killed_at_us", f"{killed_at:.3f}")),
                    value=1.0,
                    threshold=1.0,
                    fast_window_us=0.0,
                    slow_window_us=0.0,
                    rule=None,
                    recovery_trace=trace,
                )
            )
        self._pending_deaths.clear()

        for rule in self.rules:
            for key, captured in self._matches(rule.series):
                fast = self._window_value(rule, key, captured, t_us, rule.fast_window_us)
                slow = self._window_value(rule, key, captured, t_us, rule.slow_window_us)
                breach = fast > rule.threshold and slow > rule.threshold
                # Episode state is keyed by the concrete store key, not
                # the captured label: per-node series sharing a tenant
                # must not collide (a healthy node would discard another
                # node's active episode and the alert would re-fire on
                # every scrape).
                state = (rule.name, key)
                if breach and state not in self._active:
                    self._active.add(state)
                    labels: LabelSet = ((rule.label, captured),) if captured else ()
                    if key.startswith("node="):
                        labels += (("node", key.split("|", 1)[0][len("node="):]),)
                    fired.append(
                        self._fire(
                            rule_name=rule.name,
                            severity=rule.severity,
                            t_us=t_us,
                            labels=labels,
                            value=fast,
                            threshold=rule.threshold,
                            fast_window_us=rule.fast_window_us,
                            slow_window_us=rule.slow_window_us,
                            rule=rule,
                        )
                    )
                elif not breach:
                    self._active.discard(state)
        self.alerts.extend(fired)
        return fired

    def _fire(
        self,
        *,
        rule_name: str,
        severity: str,
        t_us: float,
        labels: LabelSet,
        value: float,
        threshold: float,
        fast_window_us: float,
        slow_window_us: float,
        rule: Optional[AlertRule],
        recovery_trace: Optional[dict] = None,
    ) -> Alert:
        exemplars: Tuple[int, ...] = ()
        if rule is not None and self.exemplar_source is not None:
            exemplars = tuple(self.exemplar_source(rule, labels))
        alert = Alert(
            alert_id=self._next_id,
            t_us=t_us,
            rule=rule_name,
            severity=severity,
            labels=labels,
            value=float(value),
            threshold=float(threshold),
            fast_window_us=fast_window_us,
            slow_window_us=slow_window_us,
            exemplar_trace_ids=exemplars,
            recovery_trace=recovery_trace,
        )
        self._next_id += 1
        return alert

    def _matches(self, pattern: str) -> List[Tuple[str, str]]:
        """Resolve a series pattern to ``(key, captured_label)`` pairs in
        sorted-key order.  Incremental: keys only ever accumulate, so
        each pattern remembers how far into the store's creation log it
        has looked and classifies only the keys added since — total
        matching work over a run is O(keys), not O(keys x scrapes).
        Cluster stores hold the same logical series once per node
        (``node=<id>|`` prefix), so wildcard matching ignores the node
        prefix when capturing the label."""
        n_keys = self.store.key_count()
        seen, out = self._match_cache.get(pattern) or (0, [])
        if n_keys > seen:
            grew = False
            if "*" not in pattern:
                for key in self.store.keys_since(seen):
                    bare = key.split("|", 1)[1] if key.startswith("node=") else key
                    if bare == pattern:
                        out.append((key, ""))
                        grew = True
            else:
                prefix, suffix = pattern.split("*", 1)
                fixed = len(prefix) + len(suffix)
                for key in self.store.keys_since(seen):
                    bare = key.split("|", 1)[1] if key.startswith("node=") else key
                    if (
                        bare.startswith(prefix)
                        and bare.endswith(suffix)
                        and len(bare) > fixed
                    ):
                        out.append((key, bare[len(prefix): len(bare) - len(suffix)]))
                        grew = True
            if grew:
                out.sort()
            self._match_cache[pattern] = (n_keys, out)
        return out

    def _window_value(
        self, rule: AlertRule, key: str, captured: str, t_us: float, window_us: float
    ) -> float:
        since = t_us - window_us
        if rule.mode == "max":
            bare = key.split("|", 1)[1] if key.startswith("node=") else key
            if bare.startswith("gauge:"):
                # Gauges are recorded only on change: a gauge stuck at a
                # bad value emits no samples inside the window, yet it
                # still *is* that value — carry the last write forward.
                return float(self.store.window_max_sticky(key, since))
            return float(self.store.window_max(key, since))
        if rule.mode == "sum":
            return float(self.store.window_sum(key, since))
        # ratio: denominator lives under the same node prefix as ``key``.
        node_prefix = key.split("|", 1)[0] + "|" if key.startswith("node=") else ""
        denom_key = node_prefix + rule.denom.replace("*", captured)
        denom = float(self.store.window_sum(denom_key, since))
        if denom < rule.min_denom:
            return 0.0
        return float(self.store.window_sum(key, since)) / denom

    # -- reporting -----------------------------------------------------------
    def crash_alerts(self) -> List[Alert]:
        return [a for a in self.alerts if a.recovery_trace is not None]

    def dump_recovery_traces(self, directory: str) -> List[str]:
        """Write every crash alert's retained recovery Chrome trace —
        with the alert annotated into it — to ``directory``."""
        from repro.obs.export import annotate_chrome_trace

        os.makedirs(directory, exist_ok=True)
        paths = []
        for alert in self.crash_alerts():
            data = annotate_chrome_trace(dict(alert.recovery_trace), [alert])
            label = "-".join(v for _, v in alert.labels) or alert.rule
            label = label.replace("/", "_").replace(".", "_")
            path = os.path.join(directory, f"alert-{alert.alert_id}-{label}.json")
            with open(path, "w") as fh:
                json.dump(data, fh, indent=1)
            paths.append(path)
        return paths

    def render(self) -> str:
        lines = [f"rules={len(self.rules)} alerts={len(self.alerts)}"]
        lines.extend(alert.line() for alert in self.alerts)
        return "\n".join(lines)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.alerts)
