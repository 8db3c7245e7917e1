"""``repro.obs``: cross-mEnclave causal tracing and the unified metrics
registry.

Three pieces (see ``docs/observability.md``):

* :class:`~repro.obs.span.SpanRecorder` (``platform.obs``) — causal spans
  with in-band context propagation through sRPC, parented across partition
  boundaries and across crash-and-failover.
* :class:`~repro.obs.metric.MetricsRegistry` (``platform.metrics``) —
  typed Counter/Gauge/Histogram instruments with a deterministic
  snapshot/fingerprint, absorbing the per-layer ad-hoc counter dicts.
* Exporters — Chrome trace-event JSON (Perfetto), the plain-text span
  tree (:func:`repro.metrics.report.span_tree`), and the recovery-phase
  breakdown of the figure-9 path.

Everything is inert by default: with ``enabled = False`` no span or metric
is recorded and no simulated time is ever charged, so all existing
simulated-time tables stay byte-identical.
"""

from repro.obs.export import (
    RECOVERY_PHASES,
    alert_annotations,
    annotate_chrome_trace,
    chrome_trace,
    recovery_phases,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metric import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.alerts import PAGE, TICKET, Alert, AlertEngine, AlertRule, default_rules
from repro.obs.sampling import TailSampler
from repro.obs.span import NO_SPAN, Span, SpanContext, SpanRecorder
from repro.obs.telemetry import TelemetryPipeline, TelemetrySource
from repro.obs.timeseries import TimeSeriesStore, bucket_quantile

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "PAGE",
    "TICKET",
    "default_rules",
    "TailSampler",
    "TelemetryPipeline",
    "TelemetrySource",
    "TimeSeriesStore",
    "bucket_quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "NO_SPAN",
    "chrome_trace",
    "annotate_chrome_trace",
    "alert_annotations",
    "write_chrome_trace",
    "validate_chrome_trace",
    "recovery_phases",
    "RECOVERY_PHASES",
    "collect_system_metrics",
    "enable",
]


def enable(system) -> None:
    """Turn on both spans and metrics for a booted system."""
    system.platform.obs.enabled = True
    system.platform.metrics.enabled = True


class _NodePrefixed:
    """A registry view that prefixes every instrument layer with
    ``node=<id>:`` — the cluster-merge fix: absorbing N nodes' systems
    into one registry used to silently collide (last absorb wins on
    same-named gauges), because every node calls its partitions
    ``part-gpu0`` and its layers ``spm``/``tracer``.  The view forwards
    to the real registry, so ``absorb_into`` implementations work
    unchanged."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", node: str) -> None:
        self._registry = registry
        self._prefix = f"node={node}:"

    def counter(self, layer, name):
        return self._registry.counter(self._prefix + layer, name)

    def gauge(self, layer, name):
        return self._registry.gauge(self._prefix + layer, name)

    def histogram(self, layer, name, **kwargs):
        return self._registry.histogram(self._prefix + layer, name, **kwargs)

    def absorb(self, layer, counters) -> None:
        self._registry.absorb(self._prefix + layer, counters)


def collect_system_metrics(system, *, node=None, into=None) -> "MetricsRegistry":
    """Absorb every layer's counters into the system's registry.

    One call replaces the hand-rolled dict merging the wall-clock bench
    used to do: stage-2 and SMMU TLB stats, partition fast/slow access
    lanes, device counters, tracer and span-recorder health, and SPM grant
    bookkeeping all land under one ``platform.metrics`` handle.  Returns
    the registry for chaining (``collect_system_metrics(sys).fingerprint()``).

    On the cluster path pass ``node=<id>`` (and usually ``into=`` a shared
    registry): every instrument layer gets a ``node=<id>:`` prefix so
    merged registries from N nodes no longer collide.
    """
    platform = system.platform
    registry = platform.metrics if into is None else into
    if not registry.enabled:
        return registry
    target = _NodePrefixed(registry, node) if node is not None else registry
    spm = getattr(system, "spm", None)
    if spm is not None:
        for partition in spm.partitions():
            partition.stage2.absorb_into(target)
            target.absorb(
                f"partition:{partition.name}",
                {
                    "fast_accesses": partition.fast_accesses,
                    "slow_accesses": partition.slow_accesses,
                    "restarts": partition.restarts,
                },
            )
            smmu_table = platform.smmu.table_for(partition.device.name)
            smmu_table.absorb_into(target)
        grants_active = sum(1 for grant in spm.grants if grant.active)
        target.absorb(
            "spm", {"grants_total": len(spm.grants), "grants_active": grants_active}
        )
    for device in platform.devices():
        layer = f"device:{device.name}"
        for attr in ("kernels_launched", "bytes_in_use", "programs_run", "calls_executed"):
            value = getattr(device, attr, None)
            if isinstance(value, (int, float)):
                target.gauge(layer, attr).set(value)
    target.absorb(
        "tracer", {"events": len(platform.tracer), "dropped": platform.tracer.dropped}
    )
    target.absorb(
        "obs", {"spans": len(platform.obs), "dropped": platform.obs.dropped}
    )
    return registry
