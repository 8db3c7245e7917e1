"""Continuous-batching LLM serving on paged enclave KV memory.

The :class:`LLMEngine` turns a booted
:class:`~repro.systems.cronus.CronusSystem` into a token-granular
inference frontend for the :mod:`repro.workloads.llm` workload:

* **Admission** reuses the serve-layer gates (token bucket, queue bound,
  memory quota) — an :class:`LLMRequest`'s ``memory_bytes`` is its paged
  KV footprint, so the quota now bounds exactly the partition pages the
  sequence will pin.
* **Batching** is the :class:`~repro.serve.batcher.ContinuousBatcher`:
  each device decodes its resident sequences in lock-step iterations;
  finished sequences are evicted at the boundary they finish on and
  waiting sequences admitted into the freed slots (``continuous``), or
  the device drains fully before admitting again (``static`` baseline).
* **KV memory** is a per-device :class:`~repro.workloads.llm.PagedKVCache`
  over SPM stage-2 pages; every emitted token writes its stamp through
  the partition's TLB fast lane.
* **Token streaming**: each emitted token is streamed to the client as
  one async sRPC record on a dedicated stream of the device's long-lived
  runtime channel — carrying in-band trace context when observability is
  on, exactly like every other sRPC record.
* **Crash-under-decode** (the paper's fault-isolation story with
  *stateful* consequences): a partition crash scrubs and reclaims the
  victims' KV pages (proceed-trap clear step — audited byte-by-byte
  here), the cache generation check drops the stale block tables, and
  each mid-decode victim is **re-prefilled exactly once** on a surviving
  (or the recovered) partition.  Already-streamed tokens stand; decode
  resumes after the re-prefill.

Time follows the frontend's dual-time doctrine: the engine runs a
virtual event timeline (arrivals, iteration boundaries, crashes,
recoveries) on the shared event core, :mod:`repro.sim.events`, and all
SLO metrics use it, while the platform clock keeps metering the real
execution costs of the sRPC/KV machinery underneath.
Virtual durations come from :class:`~repro.workloads.llm.LLMCostModel`,
calibrated against the same GPU constants as the kernel timing model.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dispatch.dispatcher import DispatchError, NoReadyPartition
from repro.faults import injector as _faults
from repro.obs.span import NO_SPAN
from repro.rpc.channel import SRPCPeerFailure
from repro.secure.spm import SPMError
from repro.serve.admission import AdmissionController, AdmissionDecision, Request
from repro.serve.batcher import ContinuousBatcher, MODE_CONTINUOUS
from repro.serve.placement import SpatialPlacer
from repro.serve.slo import SLOTracker
from repro.serve.tenants import Tenant, TenantRegistry, TenantSpec
from repro.sim.events import Cursor, Phase, Timers, drive
from repro.workloads.llm import LLMConfig, LLMCostModel, PagedKVCache

_DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
_ARRIVAL_ORDER = attrgetter("arrival_us", "rid")
_ARRIVAL_US = attrgetter("arrival_us")
_AT = itemgetter(0)

#: Stream id token records ride on (stream 0 carries the cuda* mecalls).
TOKEN_STREAM = 1


class LLMServingError(Exception):
    """LLM frontend misuse (unknown device, non-LLM request)."""


@dataclass(**_DATACLASS_SLOTS)
class LLMRequest(Request):
    """One autoregressive sequence offered to the LLM frontend.

    ``memory_bytes`` — the admission quota charge — is the sequence's
    *paged KV footprint* at full context (``kv_bytes``), computed by the
    arrival generator from the engine's :class:`LLMConfig`: whole stage-2
    pages, exactly what the partition allocator will hand out.
    """

    prompt_tokens: int = 16
    max_new_tokens: int = 16
    kv_bytes: int = 0

    @property
    def memory_bytes(self) -> int:
        return self.kv_bytes


class SequenceState:
    """One admitted sequence's life on the engine."""

    __slots__ = (
        "request",
        "device",
        "tokens_emitted",
        "last_token_us",
        "needs_prefill",
        "prefills",
        "reprefills",
        "victimized",
        "finished",
        "finish_us",
    )

    def __init__(self, request: LLMRequest) -> None:
        self.request = request
        self.device: Optional[str] = None
        self.tokens_emitted = 0
        self.last_token_us: Optional[float] = None
        self.needs_prefill = True
        self.prefills = 0
        self.reprefills = 0
        self.victimized = 0
        """Times a crash destroyed this sequence's KV mid-decode."""
        self.finished = False
        self.finish_us = 0.0

    @property
    def context_len(self) -> int:
        """Tokens the KV cache must hold before the next decode step."""
        return self.request.prompt_tokens + self.tokens_emitted

    def __repr__(self) -> str:
        return (
            f"SequenceState({self.request.rid!r}, device={self.device!r}, "
            f"emitted={self.tokens_emitted}/{self.request.max_new_tokens})"
        )


def llm_arrivals(
    tenant: Tenant,
    config: LLMConfig,
    *,
    count: int,
    seed: int,
    start_us: float = 0.0,
    mean_interarrival_us: Optional[float] = None,
    prompt_tokens: Tuple[int, int] = (8, 32),
    max_new_tokens: Tuple[int, int] = (8, 32),
) -> List[LLMRequest]:
    """A deterministic open-loop LLM arrival stream for one tenant.

    Mirrors :func:`repro.serve.admission.open_loop_arrivals`: exponential
    interarrivals from the tenant's own seeded RNG, with prompt/decode
    lengths drawn uniformly from the given inclusive ranges.  ``kv_bytes``
    is the full-context paged footprint under ``config``.
    """
    import random

    spec = tenant.spec
    mean = mean_interarrival_us
    if mean is None:
        mean = 1e6 / spec.rate_limit_rps
    rng = random.Random(seed)
    tenant_key = sys.intern(spec.name)
    device_key = sys.intern(spec.device_name) if spec.device_name else None
    out: List[LLMRequest] = []
    t = start_us
    for i in range(count):
        t += rng.expovariate(1.0 / mean)
        prompt = rng.randint(*prompt_tokens)
        decode = rng.randint(*max_new_tokens)
        out.append(
            LLMRequest(
                tenant=tenant_key,
                rid=f"{tenant_key}-llm-{i:07d}",
                arrival_us=t,
                deadline_us=t + spec.deadline_us,
                kind="llm",
                device_name=device_key,
                data_seed=rng.randrange(2**32),
                prompt_tokens=prompt,
                max_new_tokens=decode,
                kv_bytes=config.kv_footprint_bytes(prompt + decode),
            )
        )
    return out


class _TokenStreamer:
    """One device's long-lived runtime used purely for token streaming.

    A small device-side mailbox buffer is allocated once per partition
    generation; each emitted token then streams as one async
    ``cudaMemcpyH2D`` record on :data:`TOKEN_STREAM` — a ~tens-of-bytes
    sRPC enqueue with no partition switch, carrying in-band trace context
    when observability is enabled.  A crash abandons the generation; the
    next stream lazily rebuilds against the recovered partition.
    """

    _MAILBOX_SHAPE = (4,)

    def __init__(self, engine: "LLMEngine", device_name: str) -> None:
        self._engine = engine
        self.device_name = device_name
        self.runtime = None
        self._owner: Optional[str] = None
        self._mailbox: Optional[int] = None
        self.generation = 0
        self.tokens_streamed = 0
        self.stream_failures = 0

    def _ensure(self):
        if self.runtime is None:
            self.generation += 1
            self._owner = f"llm-{self.device_name}-g{self.generation}"
            self.runtime = self._engine.system.runtime(
                cuda_kernels=self._engine.kernels,
                gpu_name=self.device_name,
                owner=self._owner,
            )
            self._mailbox = self.runtime.cudaMalloc(self._MAILBOX_SHAPE)
        return self.runtime

    def stream_token(self, rid: str, index: int) -> None:
        """Stream one token record (async, in-band trace context)."""
        try:
            rt = self._ensure()
            payload = np.full(
                self._MAILBOX_SHAPE, float(index % 65536 + 1), dtype=np.float32
            )
            rt.gpu_channel.call(
                "cudaMemcpyH2D", self._mailbox, payload, stream=TOKEN_STREAM
            )
            self.tokens_streamed += 1
        except (SRPCPeerFailure, NoReadyPartition, SPMError, DispatchError):
            # The partition died under us; the crash path re-prefills the
            # victims — dropping this in-flight record mirrors the ring
            # scrub (never replay records into a reloaded partition).
            self.stream_failures += 1
            self.abandon()

    def flush(self) -> None:
        """Synchronize the stream at a sequence boundary (client EOF)."""
        if self.runtime is None:
            return
        try:
            self.runtime.cudaDeviceSynchronize()
        except (SRPCPeerFailure, NoReadyPartition, SPMError, DispatchError):
            self.stream_failures += 1
            self.abandon()

    def abandon(self) -> None:
        runtime, self.runtime = self.runtime, None
        self._mailbox = None
        if runtime is not None:
            try:
                runtime.close()
            except Exception:
                pass  # the peer is gone; there is nothing left to close
        if self._owner is not None:
            try:
                self._engine.system.application(self._owner).shutdown()
            except Exception:
                pass


@dataclass
class LLMReport:
    """Outcome of one :meth:`LLMEngine.run`."""

    token_table: str
    token_fingerprint: str
    slo_table: str
    slo_fingerprint: str
    makespan_us: float
    total_tokens: int
    sequences_finished: int
    sequences_expired: int
    sequences_preempted: int
    reprefills: int
    crashes: Tuple[str, ...]
    scrub_violations: int
    """Non-zero bytes found in victim KV pages after crash recovery —
    must be 0 (the proceed-trap clear step scrubs before reclaiming)."""
    kv_leaks: int
    """Freshly allocated KV blocks containing another sequence's data —
    must be 0 (cross-sequence KV leakage)."""
    iterations: int
    batcher_stats: Dict[str, object]
    kv_stats: Dict[str, Dict[str, int]]
    streamer_stats: Dict[str, Dict[str, int]]
    completed: Dict[str, float] = field(default_factory=dict)
    admitted: Set[str] = field(default_factory=set)
    prefill_audit: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    """rid -> (prefills, reprefills, victimized) for every admitted seq."""

    @property
    def tokens_per_s(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.total_tokens / (self.makespan_us / 1e6)

    def audit(self) -> List[str]:
        """Invariant audit; returns violation descriptions (empty = clean).

        * every admitted sequence finished or was reported expired;
        * **exactly-once re-prefill**: each sequence prefilled once plus
          once per time it was victimized (never zero, never twice);
        * zero scrub violations and zero cross-sequence KV leaks.
        """
        out: List[str] = []
        terminal = self.sequences_finished + self.sequences_expired
        if terminal != len(self.admitted):
            out.append(
                f"{len(self.admitted)} admitted but {terminal} terminal sequences"
            )
        for rid in sorted(self.prefill_audit):
            prefills, reprefills, victimized = self.prefill_audit[rid]
            if rid in self.completed and prefills != 1 + victimized:
                out.append(
                    f"{rid}: {prefills} prefills for {victimized} victimizations "
                    f"(want exactly {1 + victimized})"
                )
            if reprefills != max(0, prefills - 1):
                out.append(
                    f"{rid}: reprefills {reprefills} != prefills-1 {prefills - 1}"
                )
        if self.scrub_violations:
            out.append(f"{self.scrub_violations} unscrubbed KV bytes after crash")
        if self.kv_leaks:
            out.append(f"{self.kv_leaks} cross-sequence KV leaks")
        return out


class LLMEngine:
    """Token-granular serving frontend over a CronusSystem."""

    def __init__(
        self,
        system,
        *,
        config: Optional[LLMConfig] = None,
        max_running: int = 8,
        mode: str = MODE_CONTINUOUS,
        stream_tokens: bool = True,
        kernels: Tuple[str, ...] = ("matmul",),
        telemetry: Optional[object] = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else LLMConfig()
        self.cost = LLMCostModel(system.platform.costs, self.config)
        self.kernels = kernels
        self.stream_tokens = stream_tokens
        self.registry = TenantRegistry()
        self.admission = AdmissionController(self.registry)
        self.batcher = ContinuousBatcher(max_running=max_running, mode=mode)
        self.placer = SpatialPlacer(system.dispatcher, incremental=True)
        self.slo = SLOTracker()
        self._caches: Dict[str, PagedKVCache] = {}
        self._streamers: Dict[str, _TokenStreamer] = {}
        self._sequences: Dict[str, SequenceState] = {}
        self._steps = Timers()
        """device -> end of its in-flight decode iteration."""
        self._down = Timers()
        """device -> instant its crash-recovery window closes."""
        self._parked: List[SequenceState] = []
        self._admitted: Set[str] = set()
        self._completed: Dict[str, float] = {}
        self._expired: Set[str] = set()
        self._now = 0.0
        self.crashes: List[str] = []
        self.scrub_violations = 0
        self.iterations = 0
        self._obs = system.platform.obs
        self._metrics = system.platform.metrics
        self._sequence_spans: Dict[str, object] = {}
        """rid -> open sequence root span (virtual-time axis)."""
        # -- telemetry pipeline (inert when None) --------------------------
        self.telemetry = telemetry
        self._tel_source = None
        if telemetry is not None:
            self._tel_source = telemetry.attach(
                system, slo=self.slo, extra=self._telemetry_extra
            )

    # -- tenants -----------------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> Tenant:
        return self.registry.register(spec)

    # -- telemetry ---------------------------------------------------------
    def bind_telemetry(self, source) -> None:
        """Bind an externally owned telemetry source (the owner drives
        the scrapes); see :meth:`ServingSystem.bind_telemetry`."""
        self._tel_source = source

    def _telemetry_extra(self) -> Dict[str, float]:
        """Cumulative safety counters scraped alongside the registry —
        these feed the scrub-violation and KV-leak burn-rate rules."""
        return {
            "llm/scrub_violations": float(self.scrub_violations),
            "llm/kv_leaks": float(
                sum(c.leaked_blocks for c in self._caches.values())
            ),
        }

    # -- per-device state --------------------------------------------------
    def _cache(self, device: str) -> PagedKVCache:
        cache = self._caches.get(device)
        if cache is None:
            partition = self.system.spm.partition_for_device(device)
            cache = self._caches[device] = PagedKVCache(
                self.system.spm, partition, self.config
            )
        return cache

    def _streamer(self, device: str) -> _TokenStreamer:
        streamer = self._streamers.get(device)
        if streamer is None:
            streamer = self._streamers[device] = _TokenStreamer(self, device)
        return streamer

    def _is_ready(self, mos) -> bool:
        return self._down.get(mos.partition.device.name, self._now) <= self._now

    # -- admission + placement ---------------------------------------------
    def offer(self, request: LLMRequest) -> AdmissionDecision:
        """Admit (and place) or reject one sequence at its arrival time."""
        if request.kind != "llm":
            raise LLMServingError(
                f"request {request.rid!r} has kind {request.kind!r}, want 'llm'"
            )
        self.slo.record_offered(request)
        decision = self.admission.offer(request, request.arrival_us)
        if not decision.admitted:
            self.slo.record_rejected(request, decision.reason)
            if self._metrics.enabled:
                self._metrics.counter("llm", "rejected").inc()
            return decision
        self.slo.record_admitted(request)
        self.slo.record_sequence(request)
        self._admitted.add(request.rid)
        sequence = SequenceState(request)
        self._sequences[request.rid] = sequence
        if self._obs.enabled:
            # Sequence roots live on the virtual event axis, like the
            # frontend's request roots (timestamps passed explicitly).
            span = self._obs.begin(
                "llm.sequence", category="serve", detached=True,
                ts=request.arrival_us, rid=request.rid, tenant=request.tenant,
                prompt=request.prompt_tokens, max_new=request.max_new_tokens,
            )
            if span is not NO_SPAN:
                self._sequence_spans[request.rid] = span
        if self._metrics.enabled:
            self._metrics.counter("llm", "sequences").inc()
        self._place(sequence)
        return decision

    def _place(self, sequence: SequenceState) -> None:
        try:
            mos = self.placer.place(
                sequence.request, self.batcher.depth, is_ready=self._is_ready
            )
        except NoReadyPartition:
            self._parked.append(sequence)
            if self._obs.enabled:
                self._obs.event(
                    "llm.park", category="serve", ts=self._now,
                    rid=sequence.request.rid,
                )
            return
        device = mos.partition.device.name
        sequence.device = device
        self.batcher.add(device, sequence)
        self._start_iteration(device)

    # -- the decode loop ---------------------------------------------------
    def _start_iteration(self, device: str) -> None:
        """Admit waiting sequences at the boundary and schedule the next
        iteration's completion instant (no-op if one is in flight or the
        device is inside its recovery window)."""
        if device in self._steps or self._down.get(device, 0.0) > self._now:
            return
        admitted = self.batcher.admit(device)
        running = self.batcher.running(device)
        if not running:
            return
        cache = self._cache(device)
        cache.ensure_generation()
        prefill_us = 0.0
        for sequence in admitted:
            sequence.device = device
            if sequence.needs_prefill:
                prefill_us += self.cost.prefill_us(sequence.context_len)
                self._prefill(cache, sequence)
        duration = prefill_us + self.cost.decode_step_us(
            [s.context_len for s in running]
        )
        self._steps.schedule(device, self._now + duration)
        if self._metrics.enabled:
            self._metrics.histogram("llm", "iteration_us").observe(duration)

    def _prefill(self, cache: PagedKVCache, sequence: SequenceState) -> None:
        """Fill the sequence's KV for its whole current context (prompt
        plus any tokens already emitted before a crash destroyed the KV)."""
        request = sequence.request
        for _ in range(sequence.context_len):
            cache.append_token(request.rid)
        sequence.prefills += 1
        sequence.needs_prefill = False
        if sequence.prefills > 1:
            sequence.reprefills += 1
            self.slo.record_reprefill(request)
            if self._obs.enabled:
                self._obs.event(
                    "llm.reprefill", category="serve", ts=self._now,
                    rid=request.rid, device=cache.partition.device.name,
                    context=sequence.context_len,
                )
            if self._metrics.enabled:
                self._metrics.counter("llm", "reprefills").inc()

    def _finish_iteration(self, device: str) -> None:
        """One decode boundary: every resident sequence emits one token."""
        if _faults.ACTIVE is not None:
            partition = self.system.spm.partition_for_device(device)
            restarts = partition.restarts
            _faults.ACTIVE.fire("llm.decode.step", default_target=device)
            if partition.restarts != restarts or device in self._down:
                # The injected crash killed this very partition: the
                # iteration dies with it (no tokens emitted), and the
                # injector's crash handler (or our own crash path) owns
                # the victim re-prefill bookkeeping.
                if device not in self._down:
                    self.crash_device(device)
                return
        self.iterations += 1
        cache = self._cache(device)
        now = self._now
        streamer = self._streamer(device) if self.stream_tokens else None
        for sequence in self.batcher.running(device):
            request = sequence.request
            index = cache.append_token(request.rid)
            self.slo.record_token(
                request, now, prev_token_us=sequence.last_token_us
            )
            sequence.tokens_emitted += 1
            sequence.last_token_us = now
            if streamer is not None:
                streamer.stream_token(request.rid, index)
            if sequence.tokens_emitted >= request.max_new_tokens:
                self._finish_sequence(device, cache, streamer, sequence, now)
        self.placer.mark_dirty(device)
        self._start_iteration(device)

    def _finish_sequence(
        self,
        device: str,
        cache: PagedKVCache,
        streamer: Optional[_TokenStreamer],
        sequence: SequenceState,
        now: float,
    ) -> None:
        request = sequence.request
        sequence.finished = True
        sequence.finish_us = now
        self.batcher.finish(device, sequence)
        cache.release(request.rid)
        if streamer is not None:
            streamer.flush()
        self._completed[request.rid] = now
        self.slo.record_completed(request, now)
        self.slo.record_sequence_finished(request)
        self.admission.settle(request)
        span = self._sequence_spans.pop(request.rid, NO_SPAN)
        self._obs.end(
            span, ts=now, outcome="finished", tokens=sequence.tokens_emitted
        )
        if self._tel_source is not None and span.context is not None:
            self._tel_source.request_done(
                span.context.trace_id,
                latency_us=now - request.arrival_us,
                outcome="completed",
                tenant=request.tenant,
            )
        if self._metrics.enabled:
            self._metrics.counter("llm", "finished").inc()

    # -- failure handling --------------------------------------------------
    def crash_device(self, device: str) -> float:
        """Crash ``device``'s partition mid-decode (background recovery).

        The crash-under-decode story end to end: snapshot the victims' KV
        pages, fail the partition (recovery scrubs and reclaims them),
        audit the scrub byte-by-byte, drop the stale block tables, and
        re-place every victim with exactly one re-prefill owed.
        """
        if self.system.moses.get(device) is None:
            raise LLMServingError(f"no partition manages device {device!r}")
        if device in self._down:
            return self._down.get(device)
        cache = self._caches.get(device)
        victim_pages: List[int] = []
        if cache is not None and not cache.stale:
            for rid in cache.sequences():
                victim_pages.extend(cache.pages_of(rid))
        rec = self.system.fail_partition(device, background=True)
        ready_at = self._now + rec.total_us
        self._down.schedule(device, ready_at)
        self.crashes.append(device)
        self.placer.mark_dirty(device)
        self._steps.cancel(device)  # the in-flight iteration died
        # Scrub audit: recovery's clear step ran synchronously above, so
        # every KV page the victims held must already read as zeros.
        memory = self.system.platform.memory
        for page in victim_pages:
            if any(bytes(memory.page_view(page))):
                self.scrub_violations += 1
        if cache is not None:
            cache.ensure_generation()
        streamer = self._streamers.get(device)
        if streamer is not None:
            streamer.abandon()
        victims = self.batcher.evict_device(device)
        if self._obs.enabled:
            self._obs.event(
                "llm.crash", category="serve", ts=self._now, device=device,
                ready_at_us=ready_at, victims=len(victims),
            )
        if self._metrics.enabled:
            self._metrics.counter("llm", "crashes").inc()
        for sequence in victims:
            request = sequence.request
            self.slo.record_requeued(request)
            span = self._sequence_spans.get(request.rid)
            if (
                self._tel_source is not None
                and span is not None
                and span.context is not None
            ):
                # The sequence crossed a crash: pin it in the sampler.
                self._tel_source.note_recovery(span.context.trace_id)
            if not sequence.needs_prefill:
                # Mid-decode victim: its KV died with the partition.  It
                # owes exactly one re-prefill before decoding again.
                sequence.victimized += 1
                sequence.needs_prefill = True
                self.slo.record_sequence_preempted(request)
            sequence.device = None
            self._place(sequence)
        return ready_at

    def _advance(self, now: float) -> None:
        """Move the clock to ``now`` and close due recovery windows: parked
        sequences re-place, then the recovered devices resume decoding."""
        self._now = now
        recovered = list(self._down.pop_due(now))
        if not recovered:
            return
        for device in recovered:
            self.placer.mark_dirty(device)
        if self._parked:
            parked, self._parked = self._parked, []
            for sequence in parked:
                self._place(sequence)
        for device in recovered:
            self._start_iteration(device)

    # -- the event loop ----------------------------------------------------
    def run(
        self,
        arrivals: Iterable[LLMRequest],
        *,
        crash_events: Sequence[Tuple[float, str]] = (),
    ) -> LLMReport:
        """Serve an open-loop sequence stream to completion.

        ``crash_events`` is a list of ``(time_us, device)`` partition
        crashes injected mid-decode.  Phase order: the ``LLMEngine`` row
        of the ``docs/serving.md`` phase table.
        """
        phases = (
            Phase(self._down.peek, self._advance),
            Phase(self._steps.peek, self._finish_iterations),
            Cursor(sorted(arrivals, key=_ARRIVAL_ORDER), _ARRIVAL_US, self.offer),
            Cursor(
                sorted(crash_events), _AT, lambda event: self.crash_device(event[1])
            ),
        )
        drive(phases, self.telemetry, self._now)
        # Parked sequences with no recovery pending can never decode
        # (every partition they may use is gone): report them expired.
        for sequence in self._parked:
            request = sequence.request
            self._expired.add(request.rid)
            self.slo.record_expired(request)
            self.admission.settle(request)
            span = self._sequence_spans.pop(request.rid, NO_SPAN)
            self._obs.end(span, ts=self._now, outcome="expired")
            if self._tel_source is not None and span.context is not None:
                self._tel_source.request_done(
                    span.context.trace_id,
                    latency_us=self._now - request.arrival_us,
                    outcome="expired",
                    tenant=request.tenant,
                )
        self._parked.clear()
        if self.telemetry is not None:
            self.telemetry.scrape(self._now)
        return self.report()

    def _finish_iterations(self, now: float) -> None:
        for device in self._steps.pop_due(now):
            self._finish_iteration(device)

    # -- reporting ---------------------------------------------------------
    def report(self) -> LLMReport:
        accounts = self.slo.accounts()
        total_tokens = sum(a.tokens for a in accounts.values())
        finished = sum(a.finished_sequences for a in accounts.values())
        preempted = sum(a.preempted_sequences for a in accounts.values())
        reprefills = sum(a.reprefills for a in accounts.values())
        kv_leaks = sum(c.leaked_blocks for c in self._caches.values())
        return LLMReport(
            token_table=self.slo.token_table(),
            token_fingerprint=self.slo.token_fingerprint(),
            slo_table=self.slo.table(),
            slo_fingerprint=self.slo.fingerprint(),
            makespan_us=self._now,
            total_tokens=total_tokens,
            sequences_finished=finished,
            sequences_expired=len(self._expired),
            sequences_preempted=preempted,
            reprefills=reprefills,
            crashes=tuple(self.crashes),
            scrub_violations=self.scrub_violations,
            kv_leaks=kv_leaks,
            iterations=self.iterations,
            batcher_stats=dict(self.batcher.stats),
            kv_stats={d: dict(c.stats) for d, c in sorted(self._caches.items())},
            streamer_stats={
                d: {
                    "tokens_streamed": s.tokens_streamed,
                    "stream_failures": s.stream_failures,
                    "generation": s.generation,
                }
                for d, s in sorted(self._streamers.items())
            },
            completed=dict(self._completed),
            admitted=set(self._admitted),
            prefill_audit={
                rid: (seq.prefills, seq.reprefills, seq.victimized)
                for rid, seq in sorted(self._sequences.items())
            },
        )
