"""The multi-tenant serving layer.

CRONUS positions the normal-world dispatcher (section III-A) and the HAL's
MPS-style spatial sharing (section V) as its multi-tenancy story; this
package builds the serving subsystem on top of them:

* :mod:`repro.serve.tenants` — tenant registry: rate limits, memory
  quotas, priority classes, optional device pinning.
* :mod:`repro.serve.admission` — admission control with bounded per-tenant
  queues, token-bucket rate limiting in simulated time, explicit rejection
  reasons, and deterministic seeded open-loop arrival generation.
* :mod:`repro.serve.batcher` — deadline-aware batching: compatible
  invocations for one partition share the partition's long-lived sRPC
  stream (amortizing channel setup the way the sRPC fast lanes amortize
  ring accesses), flushed on max-batch, max-delay or deadline pressure.
* :mod:`repro.serve.placement` — spatial-sharing-aware placer scoring
  partitions by live accelerator contexts, serving queue depth and
  reserved bytes, with deterministic tie-breaks.
* :mod:`repro.serve.frontend` — the :class:`ServingSystem` façade wiring
  tenants → admission → batcher → placement → dispatcher → mEnclaves on a
  :class:`~repro.systems.cronus.CronusSystem`, surviving partition crashes
  mid-request with at-most-once completion.
* :mod:`repro.serve.ledger` — the request ledger every engine settles
  each admitted request through, and the one exactly-once audit every
  report runs.
* :mod:`repro.serve.slo` — per-tenant SLO accounting (latency percentiles,
  goodput, rejection/expiry counts) rendered by ``metrics.report``.
* :mod:`repro.serve.loadgen` — seeded trace-driven load generation at
  million-user scale: Zipf tenant popularity, diurnal/bursty arrival
  envelopes, heavy-tailed op sizes, plus the synthetic service-time model
  the scale benchmark runs both engines under.
* :mod:`repro.serve.autoscaler` — the SLO-driven elastic-fleet
  controller: sliding-window demand/pressure signals, a deterministic
  target-tracking policy, and boot/retire decisions the frontend applies
  as virtual-time events (replayable via ``scale_events``).
* :mod:`repro.serve.llm` — the continuous-batching LLM frontend:
  token-granular :class:`LLMEngine` over paged enclave KV memory
  (:mod:`repro.workloads.llm`), with per-token SLOs (TTFT/ITL), token
  streaming over sRPC, and crash-under-decode recovery (scrubbed KV,
  exactly-once re-prefill).
* :mod:`repro.serve.legacy` — the pre-heap scan engine, preserved
  verbatim for the scheduler-equivalence suite and the scale benchmark's
  baseline (deliberately not exported here).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    REJECT_NO_PARTITION,
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
    REJECT_RATE,
    REJECT_UNKNOWN,
    Request,
    open_loop_arrivals,
)
from repro.serve.autoscaler import (
    Autoscaler,
    AutoscalerError,
    AutoscalerPolicy,
    DECISION_ACTIONS,
    FullHistoryWindow,
    SlidingWindow,
    WindowSnapshot,
)
from repro.serve.batcher import (
    Batch,
    ContinuousBatcher,
    DeadlineBatcher,
    MODE_CONTINUOUS,
    MODE_STATIC,
)
from repro.serve.frontend import ServingReport, ServingSystem
from repro.serve.llm import (
    LLMEngine,
    LLMReport,
    LLMRequest,
    LLMServingError,
    SequenceState,
    llm_arrivals,
)
from repro.serve.loadgen import (
    LoadProfile,
    generate_trace,
    synthetic_service_model,
    tenant_specs,
    zipf_weights,
)
from repro.serve.placement import SpatialPlacer
from repro.serve.slo import SLOAccount, SLOTracker
from repro.serve.tenants import Tenant, TenantError, TenantRegistry, TenantSpec

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Autoscaler",
    "AutoscalerError",
    "AutoscalerPolicy",
    "Batch",
    "ContinuousBatcher",
    "DECISION_ACTIONS",
    "DeadlineBatcher",
    "FullHistoryWindow",
    "LLMEngine",
    "LLMReport",
    "LLMRequest",
    "LLMServingError",
    "LoadProfile",
    "MODE_CONTINUOUS",
    "MODE_STATIC",
    "SequenceState",
    "SlidingWindow",
    "WindowSnapshot",
    "REJECT_NO_PARTITION",
    "REJECT_QUEUE_FULL",
    "REJECT_QUOTA",
    "REJECT_RATE",
    "REJECT_UNKNOWN",
    "Request",
    "SLOAccount",
    "SLOTracker",
    "ServingReport",
    "ServingSystem",
    "SpatialPlacer",
    "Tenant",
    "TenantError",
    "TenantRegistry",
    "TenantSpec",
    "generate_trace",
    "llm_arrivals",
    "open_loop_arrivals",
    "synthetic_service_model",
    "tenant_specs",
    "zipf_weights",
]
