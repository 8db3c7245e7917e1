"""Data-parallel multi-GPU training (figure 11b).

LeNet is trained data-parallel across k GPUs: each replica computes
gradients on its batch shard, gradients are all-reduced, every replica
applies the same SGD step.  The paper compares three ways of moving the
gradients between accelerators in a TEE:

* ``p2p`` — CRONUS: direct GPU-to-GPU transfers over the secure PCIe bus,
  enabled by trusted shared GPU memory between mEnclaves.
* ``secure-staging`` — staging through CPU secure memory (one D2H + one
  H2D per hop).
* ``encrypted`` — the HIX/Graviton-style path: staging plus AES on every
  byte, because the memory crossed is untrusted.

Gradient exchange is *functionally* performed through the simulator
backdoor (no timing), and the communication time of the chosen mode is
charged explicitly — a ring all-reduce moves ``2 * V * (k-1)/k`` bytes per
GPU, overlapped across links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.sim import CostModel
from repro.workloads.datasets import synthetic_mnist
from repro.workloads.dnn import TRAINING_KERNELS, lenet

MODES = ("p2p", "secure-staging", "encrypted")

GRADIENT_SCALE = 160.0
"""Carries the analog LeNet's tiny gradient volume (~400 parameters) to
the real model's (~60K), the same treatment ``sim_scale`` gives compute.
Shared with :func:`repro.cluster.trainer.distributed_train`."""


def comm_time_us(costs: CostModel, gradient_bytes: int, gpus: int, mode: str) -> float:
    """Per-step all-reduce time for one GPU's gradient volume."""
    if gpus <= 1:
        return 0.0
    volume = 2.0 * gradient_bytes * (gpus - 1) / gpus  # ring all-reduce
    if mode == "p2p":
        return costs.copy_cost_us(int(volume), per_kib=costs.pcie_p2p_us_per_kib)
    if mode == "secure-staging":
        return 2.0 * costs.copy_cost_us(int(volume), per_kib=costs.pcie_dma_us_per_kib)
    if mode == "encrypted":
        staged = 2.0 * costs.copy_cost_us(int(volume), per_kib=costs.pcie_dma_us_per_kib)
        cipher = 2.0 * costs.copy_cost_us(int(volume), per_kib=costs.encryption_us_per_kib)
        return staged + cipher
    raise ValueError(f"unknown all-reduce mode {mode!r}; pick one of {MODES}")


@dataclass(frozen=True)
class DataParallelResult:
    """One figure 11b data point."""

    gpus: int
    mode: str
    steps: int
    total_time_us: float
    step_time_us: float
    comm_time_us: float
    final_loss: float


def _allreduce(runtimes, models, costs: CostModel, mode: str) -> Tuple[int, float]:
    """Average gradients across replicas (functional, via the backdoor) and
    charge the mode's communication time once (links run in parallel).
    The charged volume is scaled by :data:`GRADIENT_SCALE`."""
    grads_per_replica: List[List[np.ndarray]] = []
    for rt, model in zip(runtimes, models):
        grads_per_replica.append(
            [rt.debug_gpu_buffer(g) for _p, g in model.all_params()]
        )
    gradient_bytes = int(sum(g.nbytes for g in grads_per_replica[0]) * GRADIENT_SCALE)
    for buffers in zip(*grads_per_replica):
        mean = np.mean([b for b in buffers], axis=0)
        for b in buffers:
            b[...] = mean
    return gradient_bytes, comm_time_us(costs, gradient_bytes, len(runtimes), mode)


def data_parallel_train(
    system,
    gpus: int,
    mode: str,
    *,
    total_samples: int = 128,
    batch_size: int = 16,
    lr: float = 0.05,
) -> DataParallelResult:
    """Train LeNet data-parallel on ``gpus`` GPUs of ``system``, measuring
    the time to process ``total_samples`` samples (the figure 11b y-axis:
    training time shrinks with more GPUs; the all-reduce mode decides how
    much of that win communication eats back).

    Per-step wall time is the representative replica's compute (replicas
    run concurrently on distinct GPUs — no SM contention between them)
    plus the all-reduce time of ``mode``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    steps = max(1, total_samples // (batch_size * gpus))
    data = synthetic_mnist(batch_size * gpus * 2)
    runtimes, models = [], []
    for g in range(gpus):
        rt = system.runtime(
            cuda_kernels=TRAINING_KERNELS, gpu_name=f"gpu{g}", owner=f"replica-{g}"
        )
        model = lenet()
        model.build(rt, (batch_size, 1, 8, 8), seed=0)  # same init everywhere
        runtimes.append(rt)
        models.append(model)

    shards = list(data.batches(batch_size))
    costs = system.platform.costs
    total_time = 0.0
    total_comm = 0.0
    loss = float("nan")
    for step in range(steps):
        # Replicas run concurrently on distinct GPUs, so per-step wall time
        # is one replica's compute plus the all-reduce.  The single-clock
        # simulation executes every replica *functionally* but only replica
        # 0's duration enters the composed step time.
        mark = system.clock.now
        loss = models[0].forward_backward(
            runtimes[0], *shards[(step * gpus) % len(shards)]
        )
        compute = system.clock.now - mark
        for g in range(1, gpus):
            shard = shards[(step * gpus + g) % len(shards)]
            models[g].forward_backward(runtimes[g], *shard)
        _bytes, comm = _allreduce(runtimes, models, costs, mode)
        mark = system.clock.now
        models[0].sgd_step(runtimes[0], lr)
        runtimes[0].cudaDeviceSynchronize()
        compute += system.clock.now - mark
        for g in range(1, gpus):
            models[g].sgd_step(runtimes[g], lr)
        total_time += compute + comm
        total_comm += comm
    for rt in runtimes:
        system.release(rt)
    return DataParallelResult(
        gpus=gpus,
        mode=mode,
        steps=steps,
        total_time_us=total_time,
        step_time_us=total_time / steps,
        comm_time_us=total_comm / steps,
        final_loss=loss,
    )
