"""Cross-node data-parallel training with failure rescheduling.

One model replica per node (each inside that node's CRONUS TEE); gradients
are all-reduced over the encrypted network; a node failure mid-run drops
the replica and the scheduler rebalances the remaining work onto the
surviving attested nodes — the distributed composition of the paper's
single-machine resubmission story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.cluster import Cluster, ClusterError, ClusterNode
from repro.workloads.datasets import synthetic_mnist
from repro.workloads.distributed import GRADIENT_SCALE
from repro.workloads.dnn import TRAINING_KERNELS, lenet


@dataclass(frozen=True)
class DistributedResult:
    """Outcome of one distributed training run."""

    nodes_used: int
    nodes_failed: int
    steps: int
    total_time_us: float
    comm_time_us: float
    final_loss: float
    reschedules: int


class _Replica:
    """One node's model replica inside its TEE."""

    def __init__(self, node: ClusterNode, batch_size: int) -> None:
        self.node = node
        self.runtime = node.system.runtime(
            cuda_kernels=TRAINING_KERNELS, owner="dist-replica"
        )
        self.model = lenet()
        self.model.build(self.runtime, (batch_size, 1, 8, 8), seed=0)

    def gradients(self) -> List[np.ndarray]:
        return [self.runtime.debug_gpu_buffer(g) for _p, g in self.model.all_params()]


def distributed_train(
    cluster: Cluster,
    *,
    nodes: int = 2,
    total_samples: int = 128,
    batch_size: int = 16,
    lr: float = 0.05,
    fail_node_at_step: Optional[int] = None,
) -> DistributedResult:
    """Train LeNet data-parallel across ``nodes`` machines of ``cluster``.

    Per-step wall time = one replica's compute (replicas run concurrently
    on their own machines) + the encrypted network all-reduce.  With
    ``fail_node_at_step`` the last node dies mid-run; its shard is
    rebalanced over the survivors (each step then processes fewer samples,
    so more steps run).
    """
    cluster.attest_mesh()
    members = cluster.require_capacity(nodes)
    replicas = [_Replica(node, batch_size) for node in members]
    data = synthetic_mnist(batch_size * 4)
    shards = list(data.batches(batch_size))

    total_time = 0.0
    total_comm = 0.0
    steps = 0
    reschedules = 0
    loss = float("nan")
    samples_done = 0
    while samples_done < total_samples:
        if fail_node_at_step is not None and steps == fail_node_at_step and len(replicas) > 1:
            failed = replicas.pop()
            cluster.fail_node(failed.node.name)
            reschedules += 1
        live = [r for r in replicas if r.node.alive]
        if not live:
            raise ClusterError("all nodes failed; job lost")
        # Replica 0's compute is measured on its own node's clock.
        lead = live[0]
        mark = lead.node.system.clock.now
        loss = lead.model.forward_backward(
            lead.runtime, *shards[steps % len(shards)]
        )
        compute = lead.node.system.clock.now - mark
        for i, replica in enumerate(live[1:], start=1):
            replica.model.forward_backward(
                replica.runtime, *shards[(steps + i) % len(shards)]
            )
        # Encrypted ring all-reduce over the network.
        grads = [r.gradients() for r in live]
        gradient_bytes = int(sum(g.nbytes for g in grads[0]) * GRADIENT_SCALE)
        comm = cluster.allreduce_time_us(gradient_bytes, len(live))
        for buffers in zip(*grads):
            mean = np.mean([b for b in buffers], axis=0)
            for b in buffers:
                b[...] = mean
        mark = lead.node.system.clock.now
        lead.model.sgd_step(lead.runtime, lr)
        lead.runtime.cudaDeviceSynchronize()
        compute += lead.node.system.clock.now - mark
        for replica in live[1:]:
            replica.model.sgd_step(replica.runtime, lr)

        total_time += compute + comm
        total_comm += comm
        samples_done += batch_size * len(live)
        steps += 1

    for replica in replicas:
        if replica.node.alive:
            replica.node.system.release(replica.runtime)
    return DistributedResult(
        nodes_used=nodes,
        nodes_failed=reschedules,
        steps=steps,
        total_time_us=total_time,
        comm_time_us=total_comm,
        final_loss=loss,
        reschedules=reschedules,
    )
