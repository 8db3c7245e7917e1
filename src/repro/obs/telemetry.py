"""The telemetry pipeline: store + alert engine + tail samplers, wired
into the serving engines' virtual-time event loops.

One :class:`TelemetryPipeline` serves a whole deployment — a single
:class:`~repro.serve.frontend.ServingSystem`, an
:class:`~repro.serve.llm.LLMEngine`, or an N-node
:class:`~repro.cluster.serve.ClusterServingSystem`.  Each underlying
CRONUS system is :meth:`~TelemetryPipeline.attach`-ed (optionally under
a ``node=<id>`` label), which flips its span recorder and metrics
registry on and pairs the recorder with a
:class:`~repro.obs.sampling.TailSampler`.  The engine that owns the
event loop then:

* calls :meth:`~TelemetryPipeline.scrape` as the **last phase** of any
  instant at which the scrape timer is due — scrapes are ordinary
  periodic events in the deterministic per-instant phase order, so a
  replay scrapes the exact same state at the exact same virtual times
  and the store/alert fingerprints are byte-identical;
* reports request completions to its :class:`TelemetrySource` so the
  tail sampler can make retain decisions;
* reports node deaths via :meth:`~TelemetryPipeline.node_killed`, which
  captures the corpse's recovery spans as a Chrome trace and attaches
  it to the node-death page fired at the next scrape.

Scrape *scheduling* is the shared event core's
(:func:`repro.sim.events.drive`): scrapes subdivide waits and never
extend a run's makespan, and a final scrape after the loop drains the
tail.  With no pipeline attached every engine takes the exact code
paths it took before this module existed.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.export import chrome_trace
from repro.obs.sampling import TailSampler
from repro.obs.span import Span, SpanContext
from repro.obs.timeseries import TimeSeriesStore

_SLO_FIELDS = ("offered", "completed", "rejected", "expired", "p99_us")

TRACE_BYTE_BUDGET = 512 * 1024
"""Bytes of retained traces each attached system's tail sampler may hold."""


class TelemetrySource:
    """One attached system's handle into the pipeline: the engines call
    this on their completion paths (never on the scrape path)."""

    __slots__ = ("node", "system", "registry", "recorder", "slo", "sampler", "extra")

    def __init__(self, *, node, system, registry, recorder, slo, sampler, extra) -> None:
        self.node = node
        self.system = system
        self.registry = registry
        self.recorder = recorder
        self.slo = slo
        self.sampler = sampler
        self.extra = extra

    def request_done(
        self,
        trace_id: Optional[int],
        *,
        latency_us: float,
        outcome: str,
        tenant: Optional[str] = None,
    ) -> None:
        """A request's trace completed: tail-sample it."""
        self.sampler.observe(
            trace_id, latency_us=latency_us, outcome=outcome, tenant=tenant
        )

    def note_recovery(self, trace_id: Optional[int]) -> None:
        """This trace crossed a crash recovery: always retain it."""
        self.sampler.note_recovery(trace_id)


class TelemetryPipeline:
    """Deployment-wide virtual-time telemetry: see the module docstring."""

    def __init__(
        self,
        *,
        scrape_interval_us: float = 50_000.0,
        max_windows: int = 120,
        rules: Optional[Sequence[AlertRule]] = None,
        p99_slo_us: float = 200_000.0,
        rejection_ratio: float = 0.5,
        slow_trace_us: Optional[float] = None,
    ) -> None:
        if scrape_interval_us <= 0:
            raise ValueError(f"scrape_interval_us must be positive, got {scrape_interval_us}")
        self.scrape_interval_us = float(scrape_interval_us)
        self.store = TimeSeriesStore(
            window_us=scrape_interval_us, max_windows=max_windows
        )
        if rules is None:
            rules = default_rules(
                scrape_interval_us=self.scrape_interval_us,
                p99_slo_us=p99_slo_us,
                rejection_ratio=rejection_ratio,
            )
        self.alerts = AlertEngine(self.store, rules, exemplar_source=self._exemplars)
        self.slow_trace_us = float(
            slow_trace_us if slow_trace_us is not None else p99_slo_us
        )
        self.sources: List[TelemetrySource] = []
        self._extras: List[Callable[[], Dict[str, float]]] = []
        self._by_node: Dict[str, TelemetrySource] = {}
        self._dead: Set[str] = set()
        self._alive_last: Dict[str, float] = {}
        self._last_scrape_us: Optional[float] = None

    # -- wiring ---------------------------------------------------------------
    def attach(
        self,
        system,
        *,
        slo=None,
        node: Optional[str] = None,
        extra: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> TelemetrySource:
        """Attach one CRONUS system (optionally labelled ``node=<id>``):
        enables its spans + metrics and pairs it with a tail sampler.
        ``extra`` is a callable returning cumulative counters scraped
        alongside the registry (e.g. an engine's scrub-violation count).
        """
        from repro.obs import enable

        enable(system)
        platform = system.platform
        source = TelemetrySource(
            node=node,
            system=system,
            registry=platform.metrics,
            recorder=platform.obs,
            slo=slo,
            sampler=TailSampler(
                platform.obs,
                slow_us=self.slow_trace_us,
                byte_budget=TRACE_BYTE_BUDGET,
            ),
            extra=extra,
        )
        self.sources.append(source)
        if node is not None:
            self._by_node[node] = source
        return source

    def add_extra(self, extra: Callable[[], Dict[str, float]]) -> None:
        """Register a deployment-level cumulative-counter callable,
        scraped with no node prefix (e.g. the cluster's migration-audit
        counters, which belong to no single node)."""
        self._extras.append(extra)

    # -- the scrape event ------------------------------------------------------
    def scrape(self, t_us: float) -> None:
        """One scrape of every attached source at virtual time ``t_us``,
        followed by one alert evaluation.  Idempotent per instant."""
        if self._last_scrape_us == t_us:
            return
        self._last_scrape_us = t_us
        from repro.obs import collect_system_metrics

        for source in self.sources:
            collect_system_metrics(source.system)
            self.store.scrape_registry(t_us, source.registry, node=source.node)
            if source.slo is not None:
                self.store.scrape_slo(t_us, source.slo, node=source.node)
            prefix = f"node={source.node}|" if source.node is not None else ""
            if source.extra is not None:
                for name, value in sorted(source.extra().items()):
                    self.store.scrape_cumulative(t_us, f"{prefix}counter:{name}", value)
            if source.node is not None:
                key = f"{prefix}gauge:node/alive"
                alive = 0.0 if source.node in self._dead else 1.0
                if self._alive_last.get(key) != alive:
                    self._alive_last[key] = alive
                    self.store.record(t_us, key, alive)
        for extra in self._extras:
            for name, value in sorted(extra().items()):
                self.store.scrape_cumulative(t_us, f"counter:{name}", value)
        self.store.note_scrape(t_us)
        self.alerts.evaluate(t_us)

    # -- out-of-band signals ---------------------------------------------------
    def node_killed(self, t_us: float, node: str) -> None:
        """A node died: capture its recovery spans as a Chrome trace,
        pin those traces in the tail sampler, and queue the node-death
        page (fires at the next scrape — within one interval)."""
        self._dead.add(node)
        source = self._by_node.get(node)
        trace = None
        if source is not None and source.recorder.enabled:
            recovery = source.recorder.spans(category="recovery")
            trace_ids = list(dict.fromkeys(span.context.trace_id for span in recovery))
            if trace_ids:
                spans = [
                    span
                    for tid in trace_ids
                    for span in source.recorder.trace_spans(tid)
                    if span.end_us is not None
                ]
                present = {span.context.span_id for span in spans}
                for index, span in enumerate(spans):
                    ctx = span.context
                    if ctx.parent_id is None or ctx.parent_id in present:
                        continue
                    # The parent was still open when the node died (the
                    # request was in flight): export a copy re-rooted at
                    # its trace, so the capture has no dangling parent.
                    root = Span(
                        SpanContext(ctx.trace_id, ctx.span_id, None, ctx.seq),
                        span.name, span.category, span.partition, span.enclave,
                        span.start_us, span.attrs,
                    )
                    root.end_us = span.end_us
                    spans[index] = root
                trace = chrome_trace(spans)
                for tid in trace_ids:
                    source.sampler.note_recovery(tid)
        self.alerts.node_killed(t_us, node, recovery_trace=trace)

    def _exemplars(self, rule, labels) -> Tuple[int, ...]:
        """Exemplar trace ids for a firing alert, resolved through the
        attached samplers (attach order — deterministic).  Alerts over a
        node-prefixed series carry a ``node`` label; their exemplars
        come from that node's sampler only."""
        label_map = dict(labels)
        tenant = label_map.get("tenant")
        node_source = self._by_node.get(label_map.get("node"))
        sources = [node_source] if node_source is not None else self.sources
        out: List[int] = []
        for source in sources:
            if tenant is not None:
                out.extend(source.sampler.tenant_exemplars(tenant))
            else:
                out.extend(source.sampler.top_exemplars(2))
        return tuple(out[:4])

    # -- fingerprints ----------------------------------------------------------
    def store_fingerprint(self) -> str:
        return self.store.fingerprint()

    def alert_fingerprint(self) -> str:
        return self.alerts.fingerprint()

    def fingerprint(self) -> str:
        """One combined replay fingerprint over store + alerts."""
        combined = self.store_fingerprint() + self.alert_fingerprint()
        return hashlib.sha256(combined.encode()).hexdigest()

    def sampler_stats(self) -> Dict[str, int]:
        """Merged tail-sampler counters across every attached source."""
        totals: Dict[str, int] = {}
        for source in self.sources:
            for key, value in source.sampler.stats().items():
                if key == "byte_budget":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals

    # -- ``python -m repro top`` tables ---------------------------------------
    def _slo_agg(self):
        """{(node, tenant): {field: value}} parsed from the store keys."""
        agg: Dict[Tuple[Optional[str], str], Dict[str, float]] = {}
        for key in self.store.keys():
            bare, node = key, None
            if key.startswith("node="):
                node_part, bare = key.split("|", 1)
                node = node_part[len("node="):]
            if not bare.startswith("slo:"):
                continue
            tenant, _, field = bare[len("slo:"):].rpartition(".")
            if field not in _SLO_FIELDS or not tenant:
                continue
            entry = agg.setdefault((node, tenant), {})
            if field == "p99_us":
                entry[field] = float(self.store.latest(key) or 0.0)
            else:
                entry[field] = float(self.store.total(key))
        return agg

    def node_table(self) -> str:
        """Per-node liveness + SLO totals + worst last-window tenant p99."""
        from repro.metrics.report import format_table

        agg = self._slo_agg()
        nodes = sorted({node for node, _ in agg if node is not None})
        if not nodes:
            nodes = [source.node for source in self.sources if source.node is not None]
        rows = []
        row_nodes = nodes if nodes else [None]
        for node in row_nodes:
            fields = {f: 0.0 for f in _SLO_FIELDS[:-1]}
            worst_p99 = 0.0
            for (n, _tenant), entry in sorted(agg.items(), key=lambda kv: str(kv[0])):
                if n != node:
                    continue
                for f in fields:
                    fields[f] += entry.get(f, 0.0)
                worst_p99 = max(worst_p99, entry.get("p99_us", 0.0))
            rows.append([
                node if node is not None else "-",
                "DOWN" if node in self._dead else "up",
                int(fields["offered"]),
                int(fields["completed"]),
                int(fields["rejected"]),
                int(fields["expired"]),
                f"{worst_p99:.1f}",
            ])
        return format_table(
            ["node", "state", "offered", "completed", "rejected", "expired", "p99_us(w)"],
            rows,
        )

    def tenant_table(self, limit: int = 12) -> str:
        """Per-tenant totals merged across nodes, busiest first."""
        from repro.metrics.report import format_table

        agg = self._slo_agg()
        merged: Dict[str, Dict[str, float]] = {}
        for (_node, tenant), entry in sorted(agg.items(), key=lambda kv: str(kv[0])):
            out = merged.setdefault(tenant, {f: 0.0 for f in _SLO_FIELDS})
            for f in _SLO_FIELDS[:-1]:
                out[f] += entry.get(f, 0.0)
            out["p99_us"] = max(out["p99_us"], entry.get("p99_us", 0.0))
        order = sorted(merged.items(), key=lambda kv: (-kv[1]["offered"], kv[0]))
        rows = [
            [
                tenant,
                int(e["offered"]),
                int(e["completed"]),
                int(e["rejected"]),
                int(e["expired"]),
                f"{e['p99_us']:.1f}",
            ]
            for tenant, e in order[:limit]
        ]
        return format_table(
            ["tenant", "offered", "completed", "rejected", "expired", "p99_us(w)"], rows
        )

    def alert_table(self) -> str:
        from repro.metrics.report import format_table

        rows = []
        for alert in self.alerts.alerts:
            labels = ",".join(f"{k}={v}" for k, v in alert.labels) or "-"
            rows.append([
                alert.alert_id,
                f"{alert.t_us / 1e3:.1f}",
                alert.severity,
                alert.rule,
                labels,
                f"{alert.value:.1f}/{alert.threshold:.1f}",
                len(alert.exemplar_trace_ids),
                "yes" if alert.recovery_trace is not None else "-",
            ])
        return format_table(
            ["id", "t_ms", "sev", "rule", "labels", "value/thr", "exemplars", "trace"],
            rows,
        )
