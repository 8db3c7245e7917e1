"""Host wall-clock microbenchmarks for the stage-2 TLB + sRPC fast lanes.

Unlike every other benchmark in this directory, the quantity measured here
is *real host throughput* (operations per second of the simulator itself),
not simulated time: the stage-2 TLB, the partition single-page fast lane,
and the ring-buffer header mirrors change wall-clock cost only, and this
harness is how that speedup stays observable instead of asserted.  Nothing
is written to ``benchmarks/results/`` — host throughput is machine-
dependent and must not pollute the deterministic simulated-time tables.

Run directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick]

or through pytest (deselected from the tier-1 flow by the ``perf`` marker)::

    pytest -m perf benchmarks/bench_wallclock.py
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, Tuple

import pytest

from repro.enclave.images import CpuImage
from repro.enclave.manifest import Manifest, MECallSpec
from repro.hw.memory import PAGE_SIZE
from repro.metrics import counters_table, format_table
from repro.rpc.ringbuffer import SharedRingBuffer
from repro.systems import CronusSystem

FULL_SECONDS = 0.4
QUICK_SECONDS = 0.05


def _ops_per_sec(body: Callable[[], int], min_seconds: float) -> float:
    """Run ``body`` (which returns the ops it performed) until
    ``min_seconds`` of host time have elapsed; return ops/second."""
    total = 0
    start = time.perf_counter()
    while True:
        total += body()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return total / elapsed


def bench_partition_access(min_seconds: float) -> Tuple[float, Dict[str, Dict[str, int]]]:
    """Single-page 64-byte read/write pairs through one partition."""
    system = CronusSystem()
    cpu = system.spm.partition_for_device("cpu0")
    pages = system.spm.allocate_pages(cpu, 4)
    base = pages[0] * PAGE_SIZE
    payload = b"\xa5" * 64

    def body() -> int:
        for _ in range(1000):
            cpu.write(base, payload)
            cpu.read(base, 64)
        return 2000

    ops = _ops_per_sec(body, min_seconds)
    counters = {
        f"partition:{cpu.name}": {
            "fast_accesses": cpu.fast_accesses,
            "slow_accesses": cpu.slow_accesses,
        },
        cpu.stage2.name: cpu.stage2.tlb_stats,
    }
    return ops, counters


def bench_ring(min_seconds: float) -> Tuple[float, Dict[str, Dict[str, int]]]:
    """Cross-partition push+pop+bump_sid round trips on a shared ring."""
    system = CronusSystem()
    cpu = system.spm.partition_for_device("cpu0")
    gpu = system.spm.partition_for_device("gpu0")
    pages = system.spm.allocate_pages(cpu, 8)
    system.spm.share_pages(cpu, gpu, pages)
    ring = SharedRingBuffer(cpu, gpu, pages)
    record = b"\x5a" * 48

    def body() -> int:
        for _ in range(500):
            ring.push(record)
            ring.pop()
            ring.bump_sid()
        return 500

    ops = _ops_per_sec(body, min_seconds)
    counters = {
        "ring": ring.stats,
        cpu.stage2.name: cpu.stage2.tlb_stats,
        gpu.stage2.name: gpu.stage2.tlb_stats,
    }
    return ops, counters


def bench_srpc(min_seconds: float) -> Tuple[float, Dict[str, Dict[str, int]]]:
    """End-to-end asynchronous mECalls over one sRPC stream."""
    system = CronusSystem()
    app = system.application("wallclock")
    image = CpuImage(name="micro", functions={"work": lambda state, i: None})
    manifest = Manifest(
        device_type="cpu",
        images={"micro.so": image.digest()},
        mecalls=(MECallSpec("work", synchronous=False),),
    )
    callee = app.create_enclave(manifest, image, "micro.so")
    caller = app.create_enclave(
        manifest, CpuImage(name="micro", functions={"work": lambda s, i: None}), "micro.so"
    )
    channel = app.open_channel(caller, callee)
    channel.call("work", 0)  # warm-up (thread spawn + TLB fill)
    cpu = system.spm.partition_for_device("cpu0")

    def body() -> int:
        for i in range(200):
            channel.call("work", i)
        return 200

    ops = _ops_per_sec(body, min_seconds)
    counters = {
        f"partition:{cpu.name}": {
            "fast_accesses": cpu.fast_accesses,
            "slow_accesses": cpu.slow_accesses,
        },
        cpu.stage2.name: cpu.stage2.tlb_stats,
        "ring": channel.stream(0).ring.stats,
    }
    return ops, counters


def run(min_seconds: float) -> Tuple[str, str]:
    """Run all three microbenchmarks; return (throughput table, counters)."""
    rows = []
    merged: Dict[str, Dict[str, int]] = {}
    for name, bench in (
        ("partition 64B read+write", bench_partition_access),
        ("ring push+pop+bump_sid", bench_ring),
        ("sRPC async call (end-to-end)", bench_srpc),
    ):
        ops, counters = bench(min_seconds)
        rows.append([name, f"{ops:,.0f}"])
        for layer, values in counters.items():
            merged[f"{name.split()[0]}/{layer}"] = dict(values)
    table = format_table(["microbenchmark", "host ops/sec"], rows)
    return table, counters_table(merged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: short measurement windows (CI regression canary)",
    )
    args = parser.parse_args(argv)
    table, counters = run(QUICK_SECONDS if args.quick else FULL_SECONDS)
    print(table)
    print()
    print(counters)
    return 0


@pytest.mark.perf
def test_wallclock_smoke():
    """Quick-mode canary: the fast lanes are exercised and the TLB is hot.

    Absolute ops/sec are machine-dependent, so this asserts the *shape* of
    the hot path — nearly every access takes the fast lane and nearly every
    translation hits the TLB — which is what regresses when someone adds a
    per-access slow step.
    """
    ops, counters = bench_ring(QUICK_SECONDS)
    assert ops > 0
    cpu_tlb = next(v for k, v in counters.items() if k.startswith("stage2:") and "cpu" in k)
    hits, misses = cpu_tlb["hits"], cpu_tlb["misses"]
    assert hits / (hits + misses) > 0.95, f"TLB cold on the ring hot path: {cpu_tlb}"

    ops, counters = bench_partition_access(QUICK_SECONDS)
    assert ops > 0
    part = next(v for k, v in counters.items() if k.startswith("partition:"))
    fast, slow = part["fast_accesses"], part["slow_accesses"]
    assert fast / (fast + slow + 1) > 0.95, f"fast lane bypassed: {part}"


if __name__ == "__main__":
    raise SystemExit(main())
