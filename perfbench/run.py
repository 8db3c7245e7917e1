"""Host-speed benchmark of the CRONUS simulator.

Simulated time is the reproduction's result and must not change, so the
only performance a change can move is *host* speed: how fast the
simulator runs the mEnclave/sRPC stack and the serving layers on it.
One invocation runs one workload (see ``workloads.py``) in this process,
single-threaded, for ``--seconds`` of repetitions, and prints every
metric by name with its unit; the last stdout line is one JSON object::

    python3 perfbench/run.py --workload cluster-kill --seed 2022 --seconds 30 --trace 0

A repetition is a fresh set-up plus one ``run()``; one untimed warm-up
repetition comes first.  Timings are medians over the repetitions: a
shared host's speed drifts in phases of seconds to minutes, and the
median follows the prevailing phase where a single repetition (or the
fastest one) jumps between phases.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends half the time untraced and half traced
(``layers.py``) and reports the per-layer metrics instead: self time per
layer, exact counters, ``failed_frac``, ``trace_overhead``, the
unattributed share and the engine loop's self share.

``failed_frac`` (simulated requests rejected or expired per request
offered) is deterministic per seed and is 0 on some seeds of the default
traffic, so it is reported with the exact counters, not as an end-to-end
timing with a noise bound; any change in it means the simulation changed.

Every repetition is checked before its numbers count: the engine's own
audits must pass, every repetition (traced or not) must produce the same
simulated fingerprints and counters, and on the default seed the
fingerprints must equal the pinned ones (``pinned.json``).  A failed
check prints ``"correct": false`` and exits 1.  Host context (Python and
numpy versions, ``nproc``, a ring push/pop calibration score) is printed
with every run and never gated.

``--profile N`` adds one cProfile'd repetition after the measurement and
prints its top N functions, to cross-check the layer attribution.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import platform
import pstats
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "req_per_s": "1/s",
    "tokens_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Exact counters reported by the traced run as ``count.<name>`` (zero
#: where a workload has no such thing).
COUNTERS = (
    "offered", "completed", "expired", "rejected", "admitted", "finished",
    "routed", "steals", "migrations", "migrated_requests",
    "scrub_pages_audited", "batches", "requests_batched", "tokens",
    "iterations", "preempted", "reprefills", "kv_pages_allocated",
    "kv_tokens_written", "tokens_streamed", "tlb_hits", "tlb_misses",
    "fast_accesses", "slow_accesses", "scrapes", "series", "alerts",
    "sampler_considered", "sampler_retained", "spans",
)

#: Ratio metrics of the traced run: name -> (unit, numerator, denominator)
#: over the counters above.
RATIOS = {
    "cluster.router.steal_frac": ("fraction", "steals", "routed"),
    "serve.batcher.fill": ("req/batch", "requests_batched", "batches"),
    "hw.pagetable.tlb_hit_frac": ("fraction", "tlb_hits", "tlb_lookups"),
    "secure.partition.fast_frac": ("fraction", "fast_accesses", "accesses"),
    "workloads.llm.pages_per_token": ("pages/token", "kv_pages_allocated", "kv_tokens_written"),
    "obs.span.spans_per_req": ("spans/req", "spans", "offered"),
    "obs.sampling.kept_frac": ("fraction", "sampler_retained", "sampler_considered"),
}

CALIBRATION_OPS = 20_000


def import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def calibrate() -> float:
    """Host ring push+pop+bump_sid round trips per second (best of 3).

    The loop body of ``benchmarks/bench_wallclock.py``'s ring benchmark,
    run from here: a pure-Python hot path that moves with host speed."""
    from repro.rpc.ringbuffer import SharedRingBuffer
    from repro.systems import CronusSystem

    system = CronusSystem()
    cpu = system.spm.partition_for_device("cpu0")
    gpu = system.spm.partition_for_device("gpu0")
    pages = system.spm.allocate_pages(cpu, 8)
    system.spm.share_pages(cpu, gpu, pages)
    ring = SharedRingBuffer(cpu, gpu, pages)
    record = b"\x5a" * 48
    best = 0.0
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(CALIBRATION_OPS):
            ring.push(record)
            ring.pop()
            ring.bump_sid()
        best = max(best, CALIBRATION_OPS / (perf_counter() - t0))
    return best


def host_context() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calib_ops_per_s": calibrate(),
    }


class Rep:
    """One set-up + run + check of a workload."""

    def __init__(self, workload, tracer=None) -> None:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        state = workload.setup()
        t1 = perf_counter()
        self.setup_s = t1 - t0
        if tracer is not None:
            self.attest_s = tracer.self_ns.get("crypto.attest_s", 0) / 1e9
            tracer.reset()
        t1 = perf_counter()
        report = workload.run(state)
        self.run_s = perf_counter() - t1
        self.layer_ns = tracer.layer_ns() if tracer is not None else None
        self.problems = workload.audit(state, report)
        self.fingerprints = workload.fingerprints(state, report)
        self.counters = workload.counters(state, report)
        if tracer is not None:
            self.counters["spans"] = tracer.span_count()
        self.units = workload.units(report)
        self.failed = workload.failed(report)


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text()) if PINNED_PATH.is_file() else {}


def gate(name, reps, pinned) -> list:
    """Every reason the repetitions' numbers are not valid (empty = valid)."""
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.problems[:5]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], 1):
        if rep.fingerprints != first.fingerprints:
            problems.append(f"rep {i}: fingerprints differ from rep 0")
        shared = set(rep.counters) & set(first.counters)
        if any(rep.counters[k] != first.counters[k] for k in shared):
            problems.append(f"rep {i}: counters differ from rep 0")
    if pinned is not None:
        want = pinned.get(name)
        if not want:
            problems.append(f"no pinned fingerprints for {name}")
        else:
            for key, value in sorted(want.items()):
                got = first.fingerprints.get(key)
                if got != value:
                    problems.append(f"fingerprint {key}: {got} != pinned {value}")
    return problems


def end_to_end_metrics(workload, reps) -> dict:
    run_s = median(r.run_s for r in reps)
    rep = reps[0]
    return {
        "req_per_s": workload.offered / run_s,
        "tokens_per_s": rep.units / run_s,
        "setup_s": median(r.setup_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload, plain, traced, layers, host) -> dict:
    """Per-layer values of the median traced rep, with their units."""
    mid = sorted(traced, key=lambda r: r.run_s)[(len(traced) - 1) // 2]
    out = {}
    for layer in layers:
        if layer.unit == "s":
            value = median(r.attest_s for r in traced)
        else:
            per = workload.offered if layer.unit == "ns/req" else max(mid.units, 1)
            value = mid.layer_ns[layer.metric] / per
        out[layer.metric] = (value, layer.unit)
    counts = dict.fromkeys(COUNTERS, 0)
    counts.update(mid.counters)
    derived = dict(counts)
    derived["tlb_lookups"] = counts["tlb_hits"] + counts["tlb_misses"]
    derived["accesses"] = counts["fast_accesses"] + counts["slow_accesses"]
    for name, (unit, num, den) in RATIOS.items():
        out[name] = (derived[num] / derived[den] if derived[den] else 0.0, unit)
    out["failed_frac"] = (mid.failed / workload.offered, "fraction")
    out["trace_overhead"] = (mid.run_s / median(r.run_s for r in plain), "ratio")
    # The engine loop is itself a layer, so the unattributed share is only
    # the tracer's own call overhead; time that no wrapper covers lands in
    # the loop's self time, and missing coverage shows as its share.
    out["trace.unattributed_frac"] = (
        1.0 - sum(mid.layer_ns.values()) / 1e9 / mid.run_s, "fraction"
    )
    out["trace.loop_self_frac"] = (
        mid.layer_ns[workload.LOOP_LAYER] / 1e9 / mid.run_s, "fraction"
    )
    for name in COUNTERS:
        out[f"count.{name}"] = (counts[name], "count")
    out["host.nproc"] = (host["nproc"], "count")
    out["host.calib_ops_per_s"] = (host["calib_ops_per_s"], "1/s")
    return out


def profile_top(workload, top: int) -> str:
    """cProfile one extra repetition; its top functions by self time."""
    state = workload.setup()
    profiler = cProfile.Profile()
    profiler.runcall(workload.run, state)
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(top)
    return out.getvalue()


def run_benchmark(name, *, seed, seconds, trace, scale=1.0, pinned=None, log=print):
    """Measure one workload; returns the result document (the JSON line).

    ``pinned`` overrides the pinned fingerprints; by default they are
    checked only on the default seed at full size."""
    from layers import LAYERS, LayerTracer
    from workloads import DEFAULT_SEED, WORKLOADS

    if pinned is None and seed == DEFAULT_SEED and scale == 1.0:
        pinned = load_pinned()
    host = host_context()
    log(
        f"host: python {host['python']} numpy {host['numpy']} nproc {host['nproc']} "
        f"calibration {host['calib_ops_per_s']:,.0f} ring ops/s"
    )
    workload = WORKLOADS[name](seed, scale)
    # Untimed warm-up: the first repetition in a process pays one-off
    # costs (heap growth, lazy imports) that later ones do not.
    warmup = Rep(workload)
    start = perf_counter()
    plain_until = start + (seconds / 2 if trace else seconds)
    plain = [Rep(workload)]
    while perf_counter() < plain_until:
        plain.append(Rep(workload))
    traced = []
    if trace:
        with LayerTracer(LAYERS) as tracer:
            traced.append(Rep(workload, tracer))
            while perf_counter() < start + seconds:
                traced.append(Rep(workload, tracer))
    problems = gate(name, [warmup] + plain + traced, pinned)
    if traced and traced[0].fingerprints != plain[0].fingerprints:
        problems.append("traced fingerprints differ from the untraced ones")
    log(f"{name} seed {seed}: {len(plain)} untraced + {len(traced)} traced reps")
    log("run_s: " + " ".join(f"{r.run_s:.3f}" for r in plain + traced)
        + "  setup_s: " + " ".join(f"{r.setup_s:.3f}" for r in plain + traced))
    log("fingerprints: " + json.dumps(plain[0].fingerprints, sort_keys=True))
    log("counters: " + json.dumps(plain[0].counters, sort_keys=True))
    if trace:
        metrics = per_layer_metrics(workload, plain, traced, LAYERS, host)
    else:
        metrics = {
            key: (value, END_TO_END[key])
            for key, value in end_to_end_metrics(workload, plain).items()
        }
    for key, (value, unit) in metrics.items():
        log(f"  {key:<34} {value:>16.6g} {unit}")
    for problem in problems:
        log(f"GATE: {problem}")
    reps = plain + traced
    return {
        "correct": not problems,
        "attempted": len(reps),
        "failed": len(reps) if problems else 0,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cluster-kill", "llm-crash", "node-telemetry"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print the top N functions of one cProfile'd repetition")
    args = parser.parse_args(argv)
    import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    doc = run_benchmark(
        args.workload, seed=seed, seconds=args.seconds, trace=bool(args.trace)
    )
    if args.profile:
        print(profile_top(WORKLOADS[args.workload](seed), args.profile))
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
