"""The figure 9 failover experiment.

Two matrix-computing tasks run on two separate S-EL2 partitions (two GPUs).
Mid-run one partition is crashed; CRONUS's proceed-trap recovery restarts
only the fault-inducing mOS and the failed task is resubmitted, while the
other task keeps computing.  The experiment records a per-bucket throughput
timeline (iterations completed per interval) plus the measured recovery
time, which the paper contrasts with the ~2 minute machine reboot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs.span import NO_SPAN
from repro.rpc.channel import SRPCPeerFailure
from repro.systems.cronus import CronusSystem
from repro.systems.testbed import TestbedConfig

MATRIX_SIZE = 48
"""Side of each task's square matmul operands."""


@dataclass
class FailoverTask:
    """One matrix-computing task pinned to a GPU."""

    name: str
    gpu_name: str
    matrix_size: int
    sim_scale: float
    runtime: object = None
    handles: tuple = ()
    completions_us: List[float] = field(default_factory=list)
    attempts: int = 0
    root: object = NO_SPAN
    """The open span of the current attempt (NO_SPAN when obs is off)."""
    first_context: object = None
    """Span context of attempt 1 — resubmissions parent under it, linking
    the resubmitted work to the crashed attempt in one trace."""

    def start(self, system: CronusSystem) -> None:
        obs = system.platform.obs
        self.attempts += 1
        self.root = obs.begin(
            f"task.{self.name}",
            category="task",
            parent=self.first_context,
            detached=True,
            gpu=self.gpu_name,
            attempt=self.attempts,
            **(
                {"resubmit_of": self.first_context.span_id}
                if self.first_context is not None
                else {}
            ),
        )
        if self.first_context is None:
            self.first_context = self.root.context
        with obs.attach(self.root.context):
            self.runtime = system.runtime(
                cuda_kernels=("matmul",), gpu_name=self.gpu_name, owner=self.name
            )
            rng = np.random.default_rng(hash(self.name) % (2**31))
            a = rng.standard_normal((self.matrix_size, self.matrix_size)).astype(
                np.float32
            )
            ha = self.runtime.cudaMalloc((self.matrix_size, self.matrix_size))
            hb = self.runtime.cudaMalloc((self.matrix_size, self.matrix_size))
            hc = self.runtime.cudaMalloc((self.matrix_size, self.matrix_size))
            self.runtime.cudaMemcpyH2D(ha, a)
            self.runtime.cudaMemcpyH2D(hb, a)
        self.handles = (ha, hb, hc)

    def iterate(self, system: CronusSystem) -> bool:
        """One matmul + sync; returns False if the partition failed."""
        ha, hb, hc = self.handles
        obs = system.platform.obs
        try:
            with obs.attach(self.root.context):
                self.runtime.cudaLaunchKernel(
                    "matmul", [ha, hb, hc], sim_scale=self.sim_scale
                )
                self.runtime.cudaDeviceSynchronize()
        except SRPCPeerFailure:
            obs.end(self.root, outcome="crashed")
            self.root = NO_SPAN
            return False
        self.completions_us.append(system.clock.now)
        return True

    def crashed(self, system: CronusSystem) -> None:
        """Close the current attempt's span after an injected crash (the
        experiment marks the task inactive without another iterate, so the
        peer-failure path never fires)."""
        system.platform.obs.end(self.root, outcome="crashed")
        self.root = NO_SPAN

    def finish(self, system: CronusSystem) -> None:
        """Close the current attempt's span (experiment teardown)."""
        system.platform.obs.end(self.root, outcome="finished")
        self.root = NO_SPAN


@dataclass(frozen=True)
class FailoverResult:
    """Timeline + recovery accounting for the experiment."""

    bucket_us: float
    duration_us: float
    crash_at_us: float
    recovery_us: float
    resubmit_us: float
    throughput: Dict[str, List[int]]  # task name -> iterations per bucket
    detection_us: float = 0.0
    """Extra latency before recovery started (watchdog detection)."""


def _bucketize(completions: List[float], start: float, bucket_us: float, buckets: int) -> List[int]:
    counts = [0] * buckets
    for t in completions:
        index = int((t - start) / bucket_us)
        if 0 <= index < buckets:
            counts[index] += 1
    return counts


def run_failover_experiment(
    *,
    duration_us: float = 3_000_000.0,
    crash_at_us: float = 1_000_000.0,
    bucket_us: float = 100_000.0,
    sim_scale: float = 40_000.0,
    detection: str = "panic",
    system: Optional[CronusSystem] = None,
) -> FailoverResult:
    """Run the two-task crash/recover scenario and return the timeline.

    ``detection`` selects the failure-identification circumstance of
    section IV-D: ``"panic"`` (the partition traps into the SPM) or
    ``"watchdog"`` (the partition hangs and the SPM's heartbeat watchdog
    notices, adding up to one watchdog interval of detection latency).
    """
    if detection not in ("panic", "watchdog"):
        raise ValueError(f"unknown detection mode {detection!r}")
    system = system or CronusSystem(TestbedConfig(num_gpus=2))
    task_a = FailoverTask("task-a", "gpu0", MATRIX_SIZE, sim_scale)
    task_b = FailoverTask("task-b", "gpu1", MATRIX_SIZE, sim_scale * 0.6)
    task_a.start(system)
    task_b.start(system)

    start = system.clock.now
    crashed = False
    recovery_us = 0.0
    resubmit_us = 0.0
    detection_us = 0.0
    ready_at = None
    tasks = [task_a, task_b]
    active = {t.name: True for t in tasks}
    obs = system.platform.obs
    crash_partition = system.spm.partition_for_device("gpu0").name
    while system.clock.now - start < duration_us:
        if not crashed and system.clock.now - start >= crash_at_us:
            crashed = True
            detect_start = system.clock.now
            # Capture the pre-crash context: the detect phase belongs to
            # the request that was active when the partition died, not to
            # whatever recovery span gets noted during fail_partition.
            detect_parent = obs.partition_context(crash_partition)
            # Recovery runs in the SPM concurrently with the healthy
            # partition (background=True): the surviving task keeps
            # computing while gpu0's mOS clears and reloads.
            if detection == "watchdog":
                from repro.faults.watchdog import Watchdog

                watchdog = Watchdog(system, interval_us=50_000.0)
                detect_start = system.clock.now
                watchdog.observe()  # baseline sample
                # gpu0's mOS hangs (stops ticking); the others stay live.
                for name, mos in system.moses.items():
                    if name != "gpu0":
                        mos.tick()
                reports = watchdog.observe(background=True)
                report = reports[0]
                detection_us = system.clock.now - detect_start - report.proceed_us
            else:
                report = system.fail_partition("gpu0", background=True)
                detection_us = 0.0
            recovery_us = report.total_us
            ready_at = system.clock.now + recovery_us
            active["task-a"] = False
            task_a.crashed(system)
            # The detect phase of the figure-9 breakdown: zero-length
            # for a panic (the SPM is trapped into synchronously), up
            # to one watchdog interval for a hang.
            obs.record(
                "recovery.detect",
                start_us=detect_start,
                end_us=detect_start + detection_us,
                category="recovery",
                parent=detect_parent,
                partition=crash_partition,
                mode=detection,
            )
        progressed = False
        for task in tasks:
            if not active[task.name]:
                continue
            if system.clock.now - start >= duration_us:
                break
            if not task.iterate(system):
                active[task.name] = False
                continue
            progressed = True
        if (
            not active["task-a"]
            and crashed
            and resubmit_us == 0.0
            and ready_at is not None
            and system.clock.now >= ready_at
        ):
            # Resubmit the failed task once the partition is back.
            t0 = system.clock.now
            task_a.start(system)
            resubmit_us = system.clock.now - t0
            active["task-a"] = True
            obs.record(
                "recovery.resubmit",
                start_us=t0,
                end_us=system.clock.now,
                category="recovery",
                parent=obs.partition_context(crash_partition),
                partition=crash_partition,
                task=task_a.name,
            )
        if not progressed and all(not a for a in active.values()):
            break

    for task in tasks:
        task.finish(system)
    buckets = int(duration_us / bucket_us)
    throughput = {
        t.name: _bucketize(t.completions_us, start, bucket_us, buckets) for t in tasks
    }
    return FailoverResult(
        bucket_us=bucket_us,
        duration_us=duration_us,
        crash_at_us=crash_at_us,
        recovery_us=recovery_us,
        resubmit_us=resubmit_us,
        throughput=throughput,
        detection_us=detection_us,
    )
