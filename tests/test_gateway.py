"""The serverless function gateway: registry, DAG validation, cross-node
GPU+NPU workflows with one causally-linked Chrome trace."""

import pytest

from repro.cluster import Cluster, ClusterServingSystem
from repro.gateway import (
    FunctionRegistry,
    Gateway,
    GatewayError,
    Stage,
    Workflow,
    default_registry,
)
from repro.obs.export import chrome_trace, validate_chrome_trace


def make_gateway(nodes=2, registry=None, *, obs=True):
    cluster = Cluster(num_nodes=nodes, gpus_per_node=1)
    serving = ClusterServingSystem(cluster, migration=False)
    return Gateway(serving, registry, obs=obs)


class TestRegistry:
    def test_default_registry_names(self):
        registry = default_registry()
        names = registry.names()
        assert "matmul" in names
        assert "tvm.infer" in names
        assert "llm.generate" in names
        assert "rodinia.hotspot" in names
        assert "dnn.train" in names

    def test_unknown_function(self):
        with pytest.raises(GatewayError, match="no function named"):
            default_registry().get("nope")

    def test_default_image_id(self):
        registry = FunctionRegistry()
        spec = registry.register_fn("f", lambda ctx: {})
        assert spec.image_id == "fn:f"
        assert "f" in registry

    def test_device_class_recorded(self):
        assert default_registry().get("tvm.infer").device_class == "npu"


class TestWorkflowValidation:
    def test_duplicate_stage_rejected(self):
        with pytest.raises(GatewayError, match="duplicate"):
            Workflow("w", [Stage("a", "matmul"), Stage("a", "matmul")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(GatewayError, match="unknown stage"):
            Workflow("w", [Stage("a", "matmul", after=("ghost",))])

    def test_self_dependency_rejected(self):
        with pytest.raises(GatewayError, match="depends on itself"):
            Workflow("w", [Stage("a", "matmul", after=("a",))])

    def test_cycle_rejected(self):
        with pytest.raises(GatewayError, match="cycle"):
            Workflow(
                "w",
                [
                    Stage("a", "matmul", after=("b",)),
                    Stage("b", "matmul", after=("a",)),
                ],
            )

    def test_empty_workflow_rejected(self):
        with pytest.raises(GatewayError, match="no stages"):
            Workflow("w", [])

    def test_topo_order_respects_dependencies(self):
        flow = Workflow(
            "w",
            [
                Stage("c", "matmul", after=("a", "b")),
                Stage("a", "matmul"),
                Stage("b", "matmul", after=("a",)),
            ],
        )
        order = [s.name for s in flow.order]
        assert order.index("a") < order.index("b") < order.index("c")


class TestInvoke:
    def test_matmul_invocation(self):
        gateway = make_gateway()
        inv = gateway.invoke("matmul", {"size": 8})
        assert inv.result["correct"] is True
        assert inv.service_us > 0
        assert inv.node in ("node0", "node1")

    def test_service_us_override(self):
        registry = FunctionRegistry()
        registry.register_fn("fixed", lambda ctx: {"ok": 1, "_service_us": 123.0})
        gateway = make_gateway(registry=registry)
        inv = gateway.invoke("fixed")
        assert inv.service_us == 123.0
        assert inv.end_us - inv.start_us == 123.0
        assert "_service_us" not in inv.result

    def test_routing_pins_to_image_replica(self):
        gateway = make_gateway()
        gateway.place_image("fn:matmul", ["node1"])
        for key in ("a", "b", "c"):
            assert gateway.invoke("matmul", key=key).node == "node1"

    def test_unroutable_device_class(self):
        registry = FunctionRegistry()
        registry.register_fn("ghostclass", lambda ctx: {}, device_class="tpu")
        gateway = make_gateway(registry=registry)
        with pytest.raises(GatewayError, match="unroutable"):
            gateway.invoke("ghostclass")

    def test_llm_generate_function(self):
        gateway = make_gateway()
        inv = gateway.invoke("llm.generate", {"sequences": 2})
        assert inv.result["tokens"] > 0
        assert inv.result["audit_violations"] == 0
        assert inv.result["scrub_violations"] == 0
        assert inv.service_us > 0  # the engine's virtual makespan

    def test_runtimes_released(self):
        """Every runtime a launcher creates is torn down when the
        invocation ends — a captured handle is dead afterwards."""
        captured = {}

        def leaky(ctx):
            captured["rt"] = ctx.runtime(cuda_kernels=("matmul",), owner="leak")
            return {}

        registry = FunctionRegistry()
        registry.register_fn("leaky", leaky)
        gateway = make_gateway(nodes=1, registry=registry)
        gateway.invoke("leaky")
        with pytest.raises(Exception):
            captured["rt"].cudaMalloc((8, 8))


class TestCrossNodeWorkflow:
    def build(self):
        gateway = make_gateway()
        gateway.place_image("fn:matmul", ["node0"])
        gateway.place_image("fn:tvm.infer", ["node1"])
        flow = Workflow(
            "gpu-npu",
            [
                Stage("pre", "matmul", args={"size": 8}),
                Stage("infer", "tvm.infer", after=("pre",)),
                Stage("post", "matmul", args={"size": 8}, after=("infer",)),
            ],
        )
        return gateway, gateway.invoke_workflow(flow)

    def test_spans_two_nodes_with_costed_transfers(self):
        _, result = self.build()
        assert result.nodes_spanned == 2
        assert result.nodes == ("node0", "node1")
        assert result.cross_node_transfers == 2
        assert result.transfer_us > 0
        assert result.invocations["infer"].node == "node1"
        assert result.invocations["pre"].node == "node0"

    def test_stages_wait_for_dependencies_and_transfer(self):
        _, result = self.build()
        pre = result.invocations["pre"]
        infer = result.invocations["infer"]
        post = result.invocations["post"]
        assert infer.start_us > pre.end_us  # transfer cost in between
        assert post.start_us > infer.end_us
        assert result.makespan_us >= post.end_us - pre.start_us

    def test_single_validated_chrome_trace(self):
        gateway, result = self.build()
        trace = chrome_trace(gateway.obs.spans(trace_id=result.trace_id))
        assert validate_chrome_trace(trace) == []
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "workflow:gpu-npu" in names
        assert "fn:tvm.infer" in names
        assert "xfer:pre->infer" in names

    def test_causal_link_crosses_node_boundary(self):
        """The NPU stage's span is parented by the GPU stage's span even
        though they executed on different machines — in-band context."""
        gateway, result = self.build()
        spans = {
            s.context.span_id: s
            for s in gateway.obs.spans(trace_id=result.trace_id)
        }
        infer = next(s for s in spans.values() if s.name == "fn:tvm.infer")
        parent = spans[infer.context.parent_id]
        assert parent.name == "fn:matmul"
        assert parent.partition == "node0"
        assert infer.partition == "node1"

    def test_obs_off_still_executes(self):
        gateway = make_gateway(obs=False)
        gateway.place_image("fn:matmul", ["node0"])
        gateway.place_image("fn:tvm.infer", ["node1"])
        flow = Workflow(
            "quiet",
            [Stage("pre", "matmul"), Stage("infer", "tvm.infer", after=("pre",))],
        )
        result = gateway.invoke_workflow(flow)
        assert result.nodes_spanned == 2
        assert result.trace_id is None
        assert len(gateway.obs) == 0


class TestParallelBranches:
    def test_independent_branches_overlap(self):
        """Two stages with no mutual dependency start at the same instant
        even when they land on different nodes."""
        registry = FunctionRegistry()
        registry.register_fn("fast", lambda ctx: {"_service_us": 50.0})
        registry.register_fn("slow", lambda ctx: {"_service_us": 500.0})
        registry.register_fn("join", lambda ctx: {"_service_us": 10.0})
        gateway = make_gateway(registry=registry)
        flow = Workflow(
            "fanout",
            [
                Stage("a", "fast"),
                Stage("b", "slow"),
                Stage("c", "join", after=("a", "b")),
            ],
        )
        result = gateway.invoke_workflow(flow)
        a, b, c = (result.invocations[k] for k in "abc")
        assert a.start_us == b.start_us
        assert c.start_us >= b.end_us
