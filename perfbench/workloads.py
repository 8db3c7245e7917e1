"""The benchmark's three workloads.

Each workload turns ``--seed`` into generated inputs once per process
(trace generation is not timed), then repeats: *set-up* (boot to a ready
engine — timed as ``setup_s``), *run* (the engine's ``run()`` including
its end-of-run report — timed for ``req_per_s``/``tokens_per_s``), and a
*check* (the engine's own audits plus simulated fingerprints).

* ``cluster-kill`` — HRW routing, backlog scans, the per-node event merge,
  session sealing/migration and attest-mesh set-up; no sRPC, KV or obs.
* ``llm-crash`` — per-token sRPC streaming and paged-KV writes through
  the partition TLB fast lane, plus crash scrub and re-prefill; no
  routing, no obs.
* ``node-telemetry`` — the serve layers of ``cluster-kill`` without
  routing, with the full telemetry pipeline on: an obs change shows here
  and not on ``cluster-kill``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.cluster import Cluster, ClusterServingSystem
from repro.obs.telemetry import TelemetryPipeline
from repro.serve import LLMEngine, MODE_CONTINUOUS
from repro.serve.frontend import ServingSystem
from repro.serve.llm import llm_arrivals
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model
from repro.serve.tenants import TenantRegistry, TenantSpec
from repro.systems import CronusSystem, TestbedConfig
from repro.workloads.llm import LLMConfig

#: Seed whose simulated fingerprints are pinned (``pinned.json``).
DEFAULT_SEED = 2022

MAX_BATCH = 64
MAX_DELAY_US = 2_000.0
DEADLINE_US = 100_000.0


def _scaled(count: int, scale: float) -> int:
    return max(8, int(round(count * scale)))


def _loadgen_trace(seed: int, requests: int, rate_rps: float):
    """(tenant specs, arrival-ordered requests) of the seeded loadgen trace."""
    return generate_trace(LoadProfile(
        seed=seed,
        requests=requests,
        mean_rate_rps=rate_rps,
        deadline_us=DEADLINE_US,
    ))


def _partition_counters(systems) -> Dict[str, int]:
    """Stage-2 TLB and partition access-lane counts over every partition."""
    out = {"tlb_hits": 0, "tlb_misses": 0, "fast_accesses": 0, "slow_accesses": 0}
    for system in systems:
        for partition in system.spm.partitions():
            stats = partition.stage2.tlb_stats
            out["tlb_hits"] += stats["hits"]
            out["tlb_misses"] += stats["misses"]
            out["fast_accesses"] += partition.fast_accesses
            out["slow_accesses"] += partition.slow_accesses
    return out


class ClusterKill:
    """8 nodes x 2 GPUs behind the HRW router; ``node1`` dies 40% in."""

    name = "cluster-kill"
    NODES = 8
    GPUS_PER_NODE = 2
    REQUESTS = 40_000
    RATE_RPS = 600_000.0
    KILLED_NODE = "node1"
    KILL_FRACTION = 0.4
    STEAL_THRESHOLD = 64
    LOOP_LAYER = "cluster.serve.loop_ns"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        requests = _scaled(self.REQUESTS, scale)
        self.specs, self.requests = _loadgen_trace(seed, requests, self.RATE_RPS)
        self.kill_at_us = round(
            self.KILL_FRACTION * requests / self.RATE_RPS * 1e6, 1
        )
        self.offered = len(self.requests)

    def setup(self):
        serving = ClusterServingSystem(
            Cluster(num_nodes=self.NODES, gpus_per_node=self.GPUS_PER_NODE),
            max_batch=MAX_BATCH,
            max_delay_us=MAX_DELAY_US,
            service_model=synthetic_service_model(),
            steal_threshold=self.STEAL_THRESHOLD,
        )
        serving.add_tenants(self.specs)
        return serving

    def run(self, serving):
        return serving.run(
            self.requests, node_kill_events=[(self.kill_at_us, self.KILLED_NODE)]
        )

    def units(self, report) -> int:
        return report.completed_total

    def failed(self, report) -> int:
        return report.rejected_total + report.expired_total

    def audit(self, serving, report) -> List[str]:
        problems = list(report.audit_exactly_once())
        if report.scrub_violations:
            problems.append(f"{report.scrub_violations} unscrubbed session pages")
        if report.restore_mismatches:
            problems.append(f"{report.restore_mismatches} restore mismatches")
        if [name for _, name in report.node_kills] != [self.KILLED_NODE]:
            problems.append(f"node kills {report.node_kills} != [{self.KILLED_NODE}]")
        if not report.migrations:
            problems.append("the node kill migrated no session")
        return problems

    def fingerprints(self, serving, report) -> Dict[str, str]:
        return {
            "cluster": report.fingerprint,
            "slo": hashlib.sha256(report.slo_text.encode()).hexdigest(),
        }

    def counters(self, serving, report) -> Dict[str, int]:
        batches = batched = 0
        for node_report in report.per_node.values():
            batches += node_report.batcher_stats["batches_formed"]
            batched += node_report.batcher_stats["requests_batched"]
        out = {
            "offered": self.offered,
            "completed": report.completed_total,
            "expired": report.expired_total,
            "rejected": report.rejected_total,
            "routed": sum(report.routed.values()),
            "steals": report.steals,
            "migrations": len(report.migrations),
            "migrated_requests": report.migrated_requests,
            "scrub_pages_audited": report.scrub_pages_audited,
            "batches": batches,
            "requests_batched": batched,
        }
        out.update(_partition_counters(node.system for node in serving.cluster))
        return out


class LLMCrash:
    """Continuous decode on 4 GPUs; gpu0 and gpu1 crash mid-decode."""

    name = "llm-crash"
    DEVICES = 4
    TENANTS = 2
    SEQUENCES_PER_TENANT = 300
    MAX_RUNNING = 8
    MEAN_INTERARRIVAL_US = 60.0
    PROMPT_TOKENS = (8, 48)
    MAX_NEW_TOKENS = (8, 48)
    LOOP_LAYER = "serve.llm.loop_ns"
    CRASH_EVENTS = ((3_000.0, "gpu0"), (60_000.0, "gpu1"))
    MODEL = LLMConfig()

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        count = _scaled(self.SEQUENCES_PER_TENANT, scale)
        self.specs = [
            TenantSpec(
                f"llm-{i:02d}",
                rate_limit_rps=1e9,
                burst=1 << 20,
                memory_quota_bytes=1 << 40,
                # Room for every sequence of the tenant: the queue sheds nothing.
                max_queue_depth=count,
                deadline_us=1e9,
            )
            for i in range(self.TENANTS)
        ]
        registry = TenantRegistry()
        self.requests = []
        for i, spec in enumerate(self.specs):
            self.requests += llm_arrivals(
                registry.register(spec),
                self.MODEL,
                count=count,
                seed=seed + i,
                mean_interarrival_us=self.MEAN_INTERARRIVAL_US,
                prompt_tokens=self.PROMPT_TOKENS,
                max_new_tokens=self.MAX_NEW_TOKENS,
            )
        self.offered = len(self.requests)

    def setup(self):
        engine = LLMEngine(
            CronusSystem(TestbedConfig(num_gpus=self.DEVICES)),
            config=self.MODEL,
            max_running=self.MAX_RUNNING,
            mode=MODE_CONTINUOUS,
        )
        for spec in self.specs:
            engine.add_tenant(spec)
        return engine

    def run(self, engine):
        return engine.run(self.requests, crash_events=self.CRASH_EVENTS)

    def units(self, report) -> int:
        return report.total_tokens

    def failed(self, report) -> int:
        return self.offered - len(report.admitted) + report.sequences_expired

    def audit(self, engine, report) -> List[str]:
        problems = list(report.audit())
        if report.reprefills != report.sequences_preempted:
            problems.append(
                f"reprefills {report.reprefills} != preempted "
                f"{report.sequences_preempted}"
            )
        if list(report.crashes) != [d for _, d in self.CRASH_EVENTS]:
            problems.append(f"crashes {report.crashes} != the injected schedule")
        return problems

    def fingerprints(self, engine, report) -> Dict[str, str]:
        return {"token": report.token_fingerprint, "slo": report.slo_fingerprint}

    def counters(self, engine, report) -> Dict[str, int]:
        kv = report.kv_stats.values()
        out = {
            "offered": self.offered,
            "rejected": self.offered - len(report.admitted),
            "admitted": len(report.admitted),
            "finished": report.sequences_finished,
            "tokens": report.total_tokens,
            "iterations": report.iterations,
            "preempted": report.sequences_preempted,
            "reprefills": report.reprefills,
            "kv_pages_allocated": sum(s["blocks_allocated"] for s in kv)
            * self.MODEL.pages_per_block,
            "kv_tokens_written": sum(s["tokens_written"] for s in kv),
            "tokens_streamed": sum(
                s["tokens_streamed"] for s in report.streamer_stats.values()
            ),
        }
        out.update(_partition_counters([engine.system]))
        return out


class NodeTelemetry:
    """One 4-GPU node with the full telemetry pipeline; gpu1 crashes."""

    name = "node-telemetry"
    DEVICES = 4
    REQUESTS = 40_000
    RATE_RPS = 200_000.0
    SCRAPE_INTERVAL_US = 10_000.0
    #: Tight enough that the crash's latency spike pages some tenants, so
    #: the alert engine fires and its fingerprint is not trivially empty.
    P99_SLO_US = 30_000.0
    CRASHED_DEVICE = "gpu1"
    CRASH_FRACTION = 0.5
    LOOP_LAYER = "serve.frontend.loop_ns"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        requests = _scaled(self.REQUESTS, scale)
        self.specs, self.requests = _loadgen_trace(seed, requests, self.RATE_RPS)
        self.crash_at_us = round(
            self.CRASH_FRACTION * requests / self.RATE_RPS * 1e6, 1
        )
        self.offered = len(self.requests)

    def setup(self):
        serving = ServingSystem(
            CronusSystem(TestbedConfig(num_gpus=self.DEVICES)),
            max_batch=MAX_BATCH,
            max_delay_us=MAX_DELAY_US,
            service_model=synthetic_service_model(),
            telemetry=TelemetryPipeline(
                scrape_interval_us=self.SCRAPE_INTERVAL_US,
                p99_slo_us=self.P99_SLO_US,
            ),
        )
        for spec in self.specs:
            serving.add_tenant(spec)
        return serving

    def run(self, serving):
        return serving.run(
            self.requests, crash_events=[(self.crash_at_us, self.CRASHED_DEVICE)]
        )

    def units(self, report) -> int:
        return len(report.completed)

    def failed(self, report) -> int:
        return self.offered - len(report.completed)

    def audit(self, serving, report) -> List[str]:
        problems = list(report.audit_exactly_once())
        if report.wrong_results:
            problems.append(f"{report.wrong_results} wrong results")
        if list(report.crashes) != [self.CRASHED_DEVICE]:
            problems.append(f"crashes {report.crashes} != [{self.CRASHED_DEVICE}]")
        if not serving.telemetry.store.scrapes:
            problems.append("the telemetry pipeline never scraped")
        return problems

    def fingerprints(self, serving, report) -> Dict[str, str]:
        telemetry = serving.telemetry
        return {
            "slo": report.fingerprint,
            "telemetry.store": telemetry.store_fingerprint(),
            "telemetry.alerts": telemetry.alert_fingerprint(),
        }

    def counters(self, serving, report) -> Dict[str, int]:
        telemetry = serving.telemetry
        sampler = telemetry.sampler_stats()
        out = {
            "offered": self.offered,
            "completed": len(report.completed),
            "expired": len(report.expired),
            "rejected": sum(a.rejected_total for a in serving.slo.accounts().values()),
            "batches": report.batcher_stats["batches_formed"],
            "requests_batched": report.batcher_stats["requests_batched"],
            "scrapes": telemetry.store.scrapes,
            "series": len(telemetry.store),
            "alerts": len(telemetry.alerts.alerts),
            "sampler_considered": sampler["considered"],
            "sampler_retained": sampler["retained"],
        }
        out.update(_partition_counters([serving.system]))
        return out


WORKLOADS = {w.name: w for w in (ClusterKill, LLMCrash, NodeTelemetry)}
