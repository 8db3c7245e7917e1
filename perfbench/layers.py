"""Outside-in per-layer host-time attribution for the traced run.

The traced run wraps each layer's public entry points from this file —
the program under test is not edited.  Methods are wrapped on the class
(so engine-created and ``__slots__`` objects such as ``TelemetrySource``
and ``PagedKVCache`` are covered), and module-level functions are
rebound in every module that imported them.  Every wrapper pushes onto
one span stack, so a layer's *self time* is its wall time minus the time
its wrapped children spent: the numbers add up to the traced wall time,
and what no wrapper covers lands in the caller's self time (the engine
loops are layers too, so nothing silently disappears).  Missing coverage
therefore shows as a large engine-loop self share
(``trace.loop_self_frac``), not as unattributed time.

Reading the table: with nothing else contending, a layer's share of the
traced run caps what speeding it up alone can gain.  A layer holding a
share ``f`` of the run bounds the end-to-end gain at ``1 / (1 - f)`` —
routing at ~26% of ``cluster-kill`` caps a routing-only change near
1.35x ``req_per_s``.  Each row names the end-to-end metric (and the
workload) it should move, so a change that claims a layer can be checked
against the number it must move.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Layer:
    """One traced layer: where it is entered and what it should move."""

    metric: str
    """Per-layer metric name (``<layer>_ns``, or ``_s`` for set-up)."""
    unit: str
    """``ns/req`` (per offered request or sequence), ``ns/token`` (per
    output unit: an LLM token, or a completed request on the request
    workloads — the unit of ``tokens_per_s``) or ``s`` (per set-up)."""
    entries: Tuple[str, ...]
    """``module:Class.method`` or ``module:function`` entry points."""
    moves: str
    """The end-to-end metric and workload(s) this layer should move."""


_CK = "req_per_s on cluster-kill"
_NODE = "req_per_s on cluster-kill and node-telemetry"
_LLM = "tokens_per_s on llm-crash"
_OBS = "req_per_s and peak_rss_mb on node-telemetry"

#: The layer table.  A layer's self time is normalised by its unit's
#: count (offered requests or emitted tokens) of the traced repetition.
LAYERS: Tuple[Layer, ...] = (
    # -- cluster (cluster-kill) -------------------------------------------
    Layer("cluster.serve.route_ns", "ns/req",
          ("repro.cluster.serve:ClusterServingSystem.route",), _CK),
    Layer("cluster.router_ns", "ns/req",
          ("repro.cluster.serve:ClusterRouter.route",
           "repro.cluster.serve:ClusterRouter.home"), _CK),
    Layer("cluster.serve.loop_ns", "ns/req",
          ("repro.cluster.serve:ClusterServingSystem.run",), _CK),
    Layer("cluster.migrate_ns", "ns/req",
          ("repro.cluster.migrate:MigrationManager.ensure_session",
           "repro.cluster.migrate:MigrationManager.restore",
           "repro.cluster.migrate:MigrationManager.audit_scrub"), _CK),
    Layer("cluster.kill_ns", "ns/req",
          ("repro.cluster.serve:ClusterServingSystem.kill_node",), _CK),
    Layer("crypto.seal_ns", "ns/req",
          ("repro.crypto.seal:seal", "repro.crypto.seal:unseal"), _CK),
    Layer("crypto.attest_s", "s",
          ("repro.cluster.cluster:Cluster.attest_mesh",),
          "setup_s on cluster-kill"),
    # -- single-node serve layers (cluster-kill and node-telemetry) -------
    Layer("serve.frontend.offer_ns", "ns/req",
          ("repro.serve.frontend:ServingSystem.offer",), _NODE),
    Layer("serve.frontend.loop_ns", "ns/req",
          ("repro.serve.frontend:ServingSystem.run",),
          "req_per_s on node-telemetry"),
    Layer("serve.admission_ns", "ns/req",
          ("repro.serve.admission:AdmissionController.offer",
           "repro.serve.admission:AdmissionController.settle"), _NODE),
    Layer("serve.placement_ns", "ns/req",
          ("repro.serve.placement:SpatialPlacer.place",
           "repro.serve.placement:SpatialPlacer.mark_dirty",
           "repro.serve.placement:SpatialPlacer.forget"), _NODE),
    Layer("serve.batcher_ns", "ns/req",
          ("repro.serve.batcher:DeadlineBatcher.add",
           "repro.serve.batcher:DeadlineBatcher.flush",
           "repro.serve.batcher:DeadlineBatcher.due_partitions",
           "repro.serve.batcher:DeadlineBatcher.earliest_due"), _NODE),
    Layer("serve.slo_ns", "ns/req",
          tuple(
              f"repro.serve.slo:SLOTracker.record_{name}"
              for name in (
                  "offered", "admitted", "rejected", "completed", "expired",
                  "requeued", "duplicate_avoided", "sequence",
                  "sequence_finished", "sequence_preempted", "reprefill",
              )
          ), _NODE),
    Layer("serve.report_ns", "ns/req",
          ("repro.serve.frontend:ServingSystem.report",
           "repro.cluster.serve:ClusterServingSystem.report",
           "repro.serve.llm:LLMEngine.report"), _NODE),
    Layer("serve.service_model_ns", "ns/req",
          ("repro.serve.loadgen:SyntheticModel.__call__",), _NODE),
    # -- LLM decode (llm-crash) --------------------------------------------
    Layer("serve.llm.loop_ns", "ns/token",
          ("repro.serve.llm:LLMEngine.run",), _LLM),
    Layer("serve.batcher.continuous_ns", "ns/token",
          ("repro.serve.batcher:ContinuousBatcher.add",
           "repro.serve.batcher:ContinuousBatcher.admit",
           "repro.serve.batcher:ContinuousBatcher.finish",
           "repro.serve.batcher:ContinuousBatcher.running",
           "repro.serve.batcher:ContinuousBatcher.evict_device",
           "repro.serve.batcher:ContinuousBatcher.depth"), _LLM),
    Layer("workloads.llm.kv_ns", "ns/token",
          ("repro.workloads.llm:PagedKVCache.append_token",
           "repro.workloads.llm:PagedKVCache.release",
           "repro.workloads.llm:PagedKVCache.ensure_generation"), _LLM),
    Layer("workloads.llm.cost_ns", "ns/token",
          ("repro.workloads.llm:LLMCostModel.prefill_us",
           "repro.workloads.llm:LLMCostModel.decode_step_us"), _LLM),
    Layer("rpc.channel_ns", "ns/token",
          ("repro.rpc.channel:SRPCChannel.call",
           "repro.rpc.channel:SRPCChannel.synchronize"), _LLM),
    Layer("rpc.ringbuffer_ns", "ns/token",
          ("repro.rpc.ringbuffer:SharedRingBuffer.push",
           "repro.rpc.ringbuffer:SharedRingBuffer.pop",
           "repro.rpc.ringbuffer:SharedRingBuffer.bump_sid"), _LLM),
    Layer("secure.partition_ns", "ns/token",
          ("repro.secure.partition:Partition.read",
           "repro.secure.partition:Partition.write"), _LLM),
    Layer("secure.spm.recovery_ns", "ns/token",
          ("repro.systems.cronus:CronusSystem.fail_partition",), _LLM),
    Layer("serve.slo.token_ns", "ns/token",
          ("repro.serve.slo:SLOTracker.record_token",), _LLM),
    # -- telemetry pipeline (node-telemetry) -------------------------------
    Layer("obs.span_ns", "ns/req",
          ("repro.obs.span:SpanRecorder.begin",
           "repro.obs.span:SpanRecorder.end",
           "repro.obs.span:SpanRecorder.record",
           "repro.obs.span:SpanRecorder.event"), _OBS),
    Layer("obs.metric_ns", "ns/req",
          ("repro.obs.metric:MetricsRegistry.counter",
           "repro.obs.metric:MetricsRegistry.gauge",
           "repro.obs.metric:MetricsRegistry.histogram",
           "repro.obs.metric:MetricsRegistry.absorb",
           "repro.obs.metric:Counter.inc",
           "repro.obs.metric:Gauge.set",
           "repro.obs.metric:Histogram.observe"), _OBS),
    Layer("obs.telemetry.scrape_ns", "ns/req",
          ("repro.obs.telemetry:TelemetryPipeline.scrape",), _OBS),
    Layer("obs.timeseries_ns", "ns/req",
          ("repro.obs.timeseries:TimeSeriesStore.record",
           "repro.obs.timeseries:TimeSeriesStore.scrape_cumulative",
           "repro.obs.timeseries:TimeSeriesStore.scrape_registry",
           "repro.obs.timeseries:TimeSeriesStore.scrape_slo",
           "repro.obs.timeseries:TimeSeriesStore.note_scrape"), _OBS),
    Layer("obs.alerts_ns", "ns/req",
          ("repro.obs.alerts:AlertEngine.evaluate",
           "repro.obs.alerts:AlertEngine.node_killed"), _OBS),
    Layer("obs.sampling_ns", "ns/req",
          ("repro.obs.telemetry:TelemetrySource.request_done",
           "repro.obs.telemetry:TelemetrySource.note_recovery"), _OBS),
)

#: Span-recording entry points, counted for ``obs.span.spans_per_req``.
SPAN_ENTRIES = (
    "repro.obs.span:SpanRecorder.begin",
    "repro.obs.span:SpanRecorder.record",
    "repro.obs.span:SpanRecorder.event",
)


def _resolve(entry: str):
    """(owner, attribute name, original callable) of one entry point."""
    module_name, _, path = entry.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


class LayerTracer:
    """Installs the span-stack wrappers and accumulates self time.

    Use as a context manager: the wrappers exist only inside the block,
    and are removed (originals restored) on exit, even on error.
    """

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        """Call counts per entry point (exact, like any counter)."""
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()

    def _wrapper(self, metric: str, entry: str, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                child = stack.pop()
                self_ns[metric] += elapsed - child
                calls[entry] += 1
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for layer in self.layers:
                for entry in layer.entries:
                    owner, attr, original = _resolve(entry)
                    traced = self._wrapper(layer.metric, entry, original)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, traced)
                    else:
                        # A module function: rebind it in every module that
                        # imported it by name, or callers keep the original.
                        for module in list(sys.modules.values()):
                            if getattr(module, attr, None) is original:
                                self._patch(module, attr, original, traced)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr: str, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    def layer_ns(self) -> Dict[str, int]:
        """Self ns per layer metric (every layer, zero when not entered)."""
        return {layer.metric: self.self_ns.get(layer.metric, 0) for layer in self.layers}

    def span_count(self) -> int:
        return sum(self.calls.get(entry, 0) for entry in SPAN_ENTRIES)
