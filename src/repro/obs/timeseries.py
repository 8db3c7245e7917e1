"""The virtual-time telemetry store: fixed-width ring-buffered windows.

PR 5's :class:`~repro.obs.metric.MetricsRegistry` is a *cumulative* view:
one number per instrument, rendered once at the end of a run.  Nobody can
see an SLO burning or a rejection spike *while the system runs*, because
a cumulative counter has no time axis.  The :class:`TimeSeriesStore` adds
that axis on the serving layers' **virtual** clock: a periodic scrape
event (driven by the engines' event loops, see
:mod:`repro.obs.telemetry`) snapshots every instrument into fixed-width
windows:

* **counters** → the per-window *delta* (a rate, in events per window),
  computed against a per-series cumulative cursor;
* **gauges** → the last written value (recorded only when it changes);
* **histograms** → the per-window bucket-count deltas, folded into
  nearest-rank window quantiles over the bucket upper edges
  (:func:`bucket_quantile`);
* **SLO accounts** → per-tenant offered/completed/rejected/expired
  deltas plus the *window p99* computed over only the latencies that
  completed inside the window (an append-only-list cursor per tenant).

Series are keyed by flat strings (``counter:serve/rejected``,
``slo:tenant-a.p99_us``) with an optional ``node=<id>|`` prefix so N
cluster nodes' registries land in one store without colliding.  Every
series is a ring of the last ``max_windows`` samples; rendering sorts
the keys and formats values with fixed precision, so the sha256
:meth:`~TimeSeriesStore.fingerprint` is byte-identical across same-seed
replays — the determinism gate the observability pipeline is held to.

Nothing here reads a wall clock or advances the simulated one: scrape
timestamps are handed in by the engines, and a run with no store
attached is byte-identical to one that never imported this module.
"""

from __future__ import annotations

import hashlib
from collections import deque
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Sequence, Tuple

Number = float

_RANK_FRACTIONS: Dict[float, Tuple[int, int]] = {}
"""pct -> (numerator, 100 * denominator) of ``Fraction(str(pct))``."""


def exact_rank(n: int, pct: float) -> int:
    """The 1-based nearest rank ``ceil(pct/100 * n)``, clamped to [1, n].

    Computed *exactly*: ``pct`` is read as the decimal it prints as
    (``Fraction(str(pct))``, memoized per ``pct``), so non-integer
    percentiles like 99.9 never pick up a one-off rank from binary
    floating-point error (``99.9 * 1000 / 100`` is 999.0000000000001 in
    floats; the old ``-(-pct * n // 100)`` trick then ceils to 1000).
    """
    frac = _RANK_FRACTIONS.get(pct)
    if frac is None:
        exact = Fraction(str(pct))
        frac = _RANK_FRACTIONS[pct] = (exact.numerator, 100 * exact.denominator)
    numerator, denominator = frac
    return max(1, min(n, -((-n * numerator) // denominator)))


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int], pct: float) -> float:
    """Nearest-rank quantile from histogram bucket counts.

    ``bounds`` are inclusive upper edges; ``counts`` has one extra
    trailing overflow bucket (the :class:`~repro.obs.metric.Histogram`
    layout).  Returns the upper edge of the bucket holding the ranked
    observation — the overflow bucket reports the last finite edge, the
    best bound the fixed layout can state.
    """
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = exact_rank(total, pct)
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return float(bounds[min(index, len(bounds) - 1)])
    return float(bounds[-1])


def _fmt_value(value: Number) -> str:
    """Fixed sample formatting: integers bare, floats at 3 decimals."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"


class TimeSeriesStore:
    """Ring-buffered windowed series scraped from registries and SLOs."""

    def __init__(self, *, window_us: float = 50_000.0, max_windows: int = 120) -> None:
        if window_us <= 0:
            raise ValueError(f"window_us must be positive, got {window_us}")
        if max_windows < 2:
            raise ValueError(f"max_windows must be >= 2, got {max_windows}")
        self.window_us = float(window_us)
        self.max_windows = max_windows
        self._series: Dict[str, Deque[Tuple[float, Number]]] = {}
        self._key_log: List[str] = []
        """Keys in creation order (series are never removed), so the
        alert engine can match patterns incrementally against only the
        keys that appeared since its last evaluation."""
        self._cum: Dict[str, Number] = {}
        """Per-series cumulative cursor (counters, SLO tallies, extras)."""
        self._gauge_last: Dict[str, Number] = {}
        self._hist_cum: Dict[str, List[int]] = {}
        self._slo_pos: Dict[str, int] = {}
        """Per-tenant cursor into the append-only latency list."""
        self._slo_sorted: Dict[str, Tuple[int, List[str]]] = {}
        """Per-prefix (account count, sorted tenants) memo: trackers only
        ever add accounts, so the sort is valid until the count grows."""
        self.scrapes = 0
        self.last_scrape_us: Optional[float] = None

    # -- low-level recording -------------------------------------------------
    def record(self, t_us: float, key: str, value: Number) -> None:
        """Append one sample to ``key``'s ring (oldest window falls off)."""
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = deque(maxlen=self.max_windows)
            self._key_log.append(key)
        ring.append((t_us, value))

    def scrape_cumulative(self, t_us: float, key: str, value: Number) -> None:
        """Record the per-window delta of an externally tracked cumulative
        total (e.g. a migration manager's scrub-violation count)."""
        last = self._cum.get(key, 0)
        self._cum[key] = value
        delta = value - last
        if delta:
            self.record(t_us, key, delta)

    # -- scraping ------------------------------------------------------------
    def scrape_registry(self, t_us: float, registry, *, node: Optional[str] = None) -> None:
        """One windowed snapshot of every instrument in ``registry``."""
        prefix = f"node={node}|" if node is not None else ""
        metrics = registry.instruments
        for layer, name in sorted(metrics):
            metric = metrics[(layer, name)]
            kind = metric.kind
            if kind == "counter":
                self.scrape_cumulative(
                    t_us, f"{prefix}counter:{layer}/{name}", metric.value
                )
            elif kind == "gauge":
                key = f"{prefix}gauge:{layer}/{name}"
                value = metric.value
                if self._gauge_last.get(key) != value:
                    self._gauge_last[key] = value
                    self.record(t_us, key, value)
            elif kind == "histogram":
                base = f"{prefix}hist:{layer}/{name}"
                last = self._hist_cum.get(base)
                current = list(metric.counts)
                self._hist_cum[base] = current
                if last is None:
                    delta = current
                else:
                    delta = [c - p for c, p in zip(current, last)]
                count = sum(delta)
                if count:
                    self.record(t_us, f"{base}.count", count)
                    self.record(
                        t_us, f"{base}.p50", bucket_quantile(metric.bounds, delta, 50)
                    )
                    self.record(
                        t_us, f"{base}.p99", bucket_quantile(metric.bounds, delta, 99)
                    )

    def scrape_slo(self, t_us: float, tracker, *, node: Optional[str] = None) -> None:
        """Per-tenant windowed SLO series from an
        :class:`~repro.serve.slo.SLOTracker`: tally deltas plus the p99
        over only the latencies recorded since the previous scrape."""
        from repro.serve.slo import nearest_rank

        prefix = f"node={node}|" if node is not None else ""
        accounts = tracker.accounts()
        cached = self._slo_sorted.get(prefix)
        if cached is None or cached[0] != len(accounts):
            cached = (len(accounts), sorted(accounts))
            self._slo_sorted[prefix] = cached
        for tenant in cached[1]:
            acct = accounts[tenant]
            base = f"{prefix}slo:{tenant}"
            self.scrape_cumulative(t_us, f"{base}.offered", acct.offered)
            self.scrape_cumulative(t_us, f"{base}.completed", acct.completed)
            self.scrape_cumulative(t_us, f"{base}.rejected", acct.rejected_total)
            self.scrape_cumulative(t_us, f"{base}.expired", acct.expired)
            pos = self._slo_pos.get(base, 0)
            latencies = acct.latencies
            if len(latencies) > pos:
                window = sorted(latencies[pos:])
                self._slo_pos[base] = len(latencies)
                self.record(t_us, f"{base}.p99_us", nearest_rank(window, 99))

    def note_scrape(self, t_us: float) -> None:
        self.scrapes += 1
        self.last_scrape_us = t_us

    # -- queries -------------------------------------------------------------
    def keys(self) -> List[str]:
        return sorted(self._series)

    def key_count(self) -> int:
        """O(1) series count (the alert engine's match-memo guard)."""
        return len(self._series)

    def keys_since(self, start: int) -> List[str]:
        """Keys created at log index >= ``start``, in creation order —
        the alert engine's incremental pattern-match feed."""
        return self._key_log[start:]

    def series(self, key: str) -> Tuple[Tuple[float, Number], ...]:
        return tuple(self._series.get(key, ()))

    def latest(self, key: str) -> Optional[Number]:
        ring = self._series.get(key)
        return ring[-1][1] if ring else None

    def total(self, key: str) -> Number:
        """The cumulative cursor value (counters and SLO tallies)."""
        return self._cum.get(key, 0)

    def window_sum(self, key: str, since_us: float) -> Number:
        """Sum of samples strictly after ``since_us`` (delta series)."""
        ring = self._series.get(key)
        if not ring:
            return 0
        return sum(v for t, v in ring if t > since_us)

    def window_max(self, key: str, since_us: float) -> Number:
        """Max sample strictly after ``since_us`` (0 when none)."""
        ring = self._series.get(key)
        if not ring:
            return 0
        values = [v for t, v in ring if t > since_us]
        return max(values) if values else 0

    def window_max_sticky(self, key: str, since_us: float) -> Number:
        """Max sample strictly after ``since_us``; when no sample falls
        inside the window, the most recent sample at-or-before it.

        This is the last-write-carried-forward read for gauge series,
        which record only on change: a gauge stuck at a value since
        before the window still *is* that value throughout it, so
        alert rules over gauges keep firing past the window width."""
        ring = self._series.get(key)
        if not ring:
            return 0
        best = carry = None
        for t, v in ring:
            if t > since_us:
                best = v if best is None else max(best, v)
            else:
                carry = v
        if best is not None:
            return best
        return carry if carry is not None else 0

    # -- deterministic export ------------------------------------------------
    def render(self) -> str:
        """All retained windows, sorted keys, fixed formatting."""
        lines = [
            f"window_us={self.window_us:.3f} scrapes={self.scrapes} "
            f"series={len(self._series)}"
        ]
        for key in self.keys():
            samples = " ".join(
                f"{t:.3f}:{_fmt_value(v)}" for t, v in self._series[key]
            )
            lines.append(f"{key} {samples}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """sha256 of the rendered store — the replay acceptance gate."""
        return hashlib.sha256(self.render().encode()).hexdigest()

    def __len__(self) -> int:
        return len(self._series)
