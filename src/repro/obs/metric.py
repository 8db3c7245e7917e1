"""The unified typed metrics registry.

Four layers of the stack grew their own ad-hoc counter dicts — the TLB's
``tlb_stats``, the ring's ``header_writebacks``, the channel's
``reclaim_errors``, the tracer's ``dropped``, the serving layer's batcher
and worker stats.  The :class:`MetricsRegistry` is the one
``platform.metrics`` handle that absorbs them all behind three typed
instruments:

* :class:`Counter` — monotonically increasing count.
* :class:`Gauge` — last-set value (also how absorbed ad-hoc dicts land).
* :class:`Histogram` — fixed bucket bounds chosen at creation, so the
  bucket layout (and therefore the snapshot text) is deterministic.

Null-object disabled path: a disabled registry hands out one shared null
instrument whose mutators are no-ops, so call sites never test
``registry.enabled``; they call the registry and the instrument
unconditionally, and a disabled call records nothing.  The snapshot
is rendered with sorted keys and fixed formatting, so its sha256
fingerprint is byte-identical across same-seed runs.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]

#: Default latency-style bucket bounds (simulated microseconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0, 100_000.0, 1_000_000.0,
)


class MetricError(Exception):
    """Registry misuse: type conflict or bad bucket bounds."""


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be non-negative, got {amount}")
        self.value += amount

    def render(self) -> str:
        return _fmt(self.value)


class Gauge:
    """A last-value-wins instrument."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def render(self) -> str:
        return _fmt(self.value)


class Histogram:
    """Fixed-bound bucketed observations.

    ``bounds`` are the inclusive upper edges; one overflow bucket catches
    everything above the last bound.  Bounds are fixed at creation so the
    snapshot layout never depends on the data.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise MetricError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def render(self) -> str:
        return f"count={self.count} sum={_fmt(round(self.total, 3))} mean={_fmt(round(self.mean, 3))}"


class _NullInstrument:
    """Shared no-op instrument handed out by a disabled registry."""

    kind = "null"
    __slots__ = ()
    value = 0
    count = 0
    total = 0.0

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def render(self) -> str:  # pragma: no cover - never in a snapshot
        return "0"


_NULL = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """All instruments, keyed by ``(layer, name)``.

    ``layer`` mirrors the ``counters_table`` convention (e.g.
    ``"stage2:part-gpu0"``, ``"srpc"``, ``"serve.batcher"``) so absorbed
    legacy dicts and new typed metrics render in one table.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, str], Instrument] = {}
        self.instruments: Mapping[Tuple[str, str], Instrument] = MappingProxyType(
            self._metrics
        )
        """Read-only live view of every instrument, keyed ``(layer, name)``."""

    # -- instrument access -------------------------------------------------
    # The public accessors test ``enabled`` themselves, so a disabled
    # call site pays one call to the registry and one to the null
    # instrument, nothing more.
    def _get(self, layer: str, name: str, factory, kind: str):
        key = (layer, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise MetricError(
                f"metric {layer}/{name} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, layer: str, name: str) -> Counter:
        if not self.enabled:
            return _NULL
        return self._get(layer, name, Counter, "counter")

    def gauge(self, layer: str, name: str) -> Gauge:
        if not self.enabled:
            return _NULL
        return self._get(layer, name, Gauge, "gauge")

    def histogram(
        self,
        layer: str,
        name: str,
        *,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return _NULL
        return self._get(layer, name, lambda: Histogram(bounds), "histogram")

    # -- legacy counter dicts ----------------------------------------------
    def absorb(self, layer: str, counters: Mapping[str, Number]) -> None:
        """Set one layer's ad-hoc counter dict into the registry as gauges
        (last absorption wins — call at snapshot points)."""
        if not self.enabled:
            return
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                self.gauge(layer, name).set(value)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A plain, deterministically ordered view of every instrument."""
        out: Dict[str, object] = {}
        for (layer, name) in sorted(self._metrics):
            metric = self._metrics[(layer, name)]
            key = f"{layer}/{name}"
            if isinstance(metric, Histogram):
                out[key] = {
                    "count": metric.count,
                    "sum": round(metric.total, 6),
                    "buckets": list(metric.counts),
                    "bounds": list(metric.bounds),
                }
            else:
                out[key] = metric.value
        return out

    def rows(self) -> List[List[str]]:
        """``(layer, metric, kind, value)`` rows, sorted — the registry's
        half of :func:`repro.metrics.report.counters_table`."""
        rows = []
        for (layer, name) in sorted(self._metrics):
            metric = self._metrics[(layer, name)]
            rows.append([layer, name, metric.kind, metric.render()])
        return rows

    def render(self) -> str:
        """Aligned text table of the full snapshot."""
        from repro.metrics.report import format_table

        return format_table(["layer", "metric", "kind", "value"], self.rows())

    def fingerprint(self) -> str:
        """sha256 of the rendered snapshot — byte-identical across
        same-seed runs (the acceptance gate for determinism)."""
        return hashlib.sha256(self.render().encode()).hexdigest()

    def get(self, layer: str, name: str) -> Optional[Instrument]:
        """Introspection: the live instrument, or None."""
        return self._metrics.get((layer, name))

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)


def _fmt(value: Number) -> str:
    """Integers render bare; floats keep their repr (stable in py3)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
