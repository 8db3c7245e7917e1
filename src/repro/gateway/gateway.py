"""The gateway: one production-shaped entry point over the cluster.

``invoke(name)`` routes a registered function to an alive node that (a)
holds the function's enclave image and (b) has a device of the function's
class, runs its launcher against that node's real enclave stack, and
meters the execution with the node's platform clock.  ``invoke_workflow``
executes a validated :class:`~repro.gateway.workflow.Workflow` DAG:
stages start when their dependencies finish (plus a costed cross-node
transfer when producer and consumer landed on different machines), so
GPU and NPU stages overlap exactly as far as the DAG allows.

Tracing: the gateway owns a :class:`~repro.obs.span.SpanRecorder` on its
own virtual clock.  A workflow opens one root span; every stage span is
parented via the **in-band** ``(trace_id, span_id)`` wire pair of its
latest-finishing dependency (or the root), and cross-node transfers are
their own spans on the ``network`` track — one Chrome trace covers the
whole cross-node DAG, causally linked across the node boundary, and
passes :func:`repro.obs.export.validate_chrome_trace`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.cluster.serve import ClusterServingSystem
from repro.gateway.registry import (
    FunctionContext,
    FunctionRegistry,
    FunctionSpec,
    GatewayError,
    default_registry,
)
from repro.gateway.workflow import Invocation, Workflow, WorkflowResult
from repro.obs.span import NO_SPAN, SpanRecorder
from repro.sim.clock import SimClock


class Gateway:
    """Serverless function front-end over a :class:`ClusterServingSystem`."""

    def __init__(
        self,
        cluster_serving: ClusterServingSystem,
        registry: Optional[FunctionRegistry] = None,
        *,
        obs: bool = True,
    ) -> None:
        self.cluster = cluster_serving
        self.registry = registry if registry is not None else default_registry()
        self._clock = SimClock()
        self.obs = SpanRecorder(self._clock, enabled=obs)
        self.invocations = 0
        # Default placement: every function's image on every alive node;
        # narrow with place_image() to model partial replication.
        for spec in self.registry.specs():
            if spec.image_id not in self.cluster.images.images():
                self.cluster.images.register(
                    spec.image_id,
                    [ns.name for ns in self.cluster.alive_nodes()],
                )

    # -- placement ---------------------------------------------------------
    def place_image(self, image_id: str, nodes) -> None:
        """Restrict (or re-place) an image's replica set."""
        self.cluster.images.register(image_id, nodes)

    def _node_has_class(self, ns, device_class: str) -> bool:
        return any(
            mos.device_type == device_class
            for mos in ns.node.system.moses.values()
        )

    def route_fn(self, spec: FunctionSpec, key: str) -> str:
        """The node an invocation of ``spec`` lands on."""
        candidates = [
            name
            for name in self.cluster.candidates(spec.image_id)
            if self._node_has_class(self.cluster.node_state(name), spec.device_class)
        ]
        if not candidates:
            raise GatewayError(
                f"function {spec.name!r} is unroutable: no alive node holds "
                f"image {spec.image_id!r} with a {spec.device_class!r} device"
            )
        return self.cluster.router.home(key, candidates)

    # -- transfer costing --------------------------------------------------
    def transfer_us(self, nbytes: int) -> float:
        """Inter-node result handoff, costed like a checkpoint migration
        (:meth:`ClusterServingSystem.migration_delay_us`)."""
        return self.cluster.migration_delay_us(nbytes)

    # -- invocation --------------------------------------------------------
    def invoke(
        self,
        name: str,
        args: Optional[Mapping[str, object]] = None,
        *,
        key: Optional[str] = None,
        parent=None,
        at_us: Optional[float] = None,
    ) -> Invocation:
        """Run one function now (or at virtual instant ``at_us``)."""
        spec = self.registry.get(name)
        target = self.route_fn(spec, key if key is not None else name)
        ns = self.cluster.node_state(target)
        start = self._clock.now if at_us is None else at_us
        span = self.obs.begin(
            f"fn:{name}", category="gateway", detached=True, ts=start,
            parent=parent, partition=target, node=target, fn=name,
        )
        ctx = FunctionContext(ns.node)
        clock0 = ns.node.system.clock.now
        try:
            result = dict(spec.launcher(ctx, **dict(args or {})))
        finally:
            ctx.close()
        service = result.pop("_service_us", None)
        if service is None:
            service = ns.node.system.clock.now - clock0
        end = start + float(service)
        self.obs.end(span, ts=end, service_us=float(service))
        if end > self._clock.now:
            self._clock.advance(end - self._clock.now)
        self.invocations += 1
        return Invocation(
            fn=name,
            node=target,
            start_us=start,
            end_us=end,
            service_us=float(service),
            result=result,
            context=span.context if span is not NO_SPAN else None,
        )

    def invoke_workflow(
        self, workflow: Workflow, *, at_us: Optional[float] = None
    ) -> WorkflowResult:
        """Execute a DAG; returns every stage's invocation."""
        start = self._clock.now if at_us is None else at_us
        root = self.obs.begin(
            f"workflow:{workflow.name}", category="gateway", detached=True,
            ts=start, partition="gateway", stages=len(workflow.stages),
        )
        root_ctx = root.context if root is not NO_SPAN else None
        done: Dict[str, Invocation] = {}
        transfers = 0
        transfer_total = 0.0
        finish = start
        for stage in workflow.order:
            spec = self.registry.get(stage.fn)
            target = self.route_fn(spec, f"{workflow.name}/{stage.name}")
            stage_start = start
            parent_ctx = root_ctx
            for dep in stage.after:
                upstream = done[dep]
                ready = upstream.end_us
                if upstream.node != target:
                    payload = stage.payload_bytes
                    if payload is None:
                        payload = self.registry.get(upstream.fn).payload_bytes
                    cost = self.transfer_us(payload)
                    self.obs.record(
                        f"xfer:{dep}->{stage.name}",
                        category="gateway",
                        start_us=upstream.end_us,
                        end_us=upstream.end_us + cost,
                        parent=(
                            upstream.context.wire()
                            if upstream.context is not None
                            else root_ctx
                        ),
                        partition="network",
                        src=upstream.node, dst=target, bytes=payload,
                    )
                    transfers += 1
                    transfer_total += cost
                    ready += cost
                if ready > stage_start or parent_ctx is root_ctx:
                    # Parent under the latest-finishing dependency: the
                    # causal edge the cross-node trace test asserts.
                    parent_ctx = upstream.context or root_ctx
                stage_start = max(stage_start, ready)
            inv = self.invoke(
                stage.fn,
                stage.args,
                key=f"{workflow.name}/{stage.name}",
                parent=(
                    parent_ctx.wire()
                    if parent_ctx is not None and parent_ctx is not root_ctx
                    else root_ctx
                ),
                at_us=stage_start,
            )
            done[stage.name] = inv
            finish = max(finish, inv.end_us)
        self.obs.end(root, ts=finish)
        return WorkflowResult(
            name=workflow.name,
            invocations=done,
            start_us=start,
            end_us=finish,
            cross_node_transfers=transfers,
            transfer_us=transfer_total,
            trace_id=root_ctx.trace_id if root_ctx is not None else None,
            root_context=root_ctx,
        )
