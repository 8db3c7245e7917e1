"""Trace-driven load generation at million-user scale.

:func:`repro.serve.admission.open_loop_arrivals` models one tenant
offering a steady Poisson stream — the right tool for the four-tenant
SLO benches, and hopeless for the north star of "heavy traffic from
millions of users".  This module generates the production-shaped trace:

* **Zipf tenant popularity** — request volume across *thousands* of
  tenants follows a discrete power law (rank ``r`` draws traffic
  ∝ ``1/r^s``), the standard shape of real multi-tenant request logs: a
  few whales, a long tail of mice.
* **Diurnal and bursty arrival envelope** — the aggregate arrival rate is
  an inhomogeneous Poisson process: a sinusoidal day/night cycle
  (``diurnal_amplitude``) with superimposed seeded traffic bursts
  (``burst_rate_multiplier`` for ``burst_duration_us``-long episodes), so
  the scheduler sees both troughs and rushes, not a flat offered load.
* **Heavy-tailed op sizes** — request sizes draw from a bounded Pareto
  (shape ``size_alpha``), matching the "most calls are small, the p99 is
  enormous" shape of real inference payloads.

Everything is derived from one ``numpy`` generator seeded with ``seed``,
so a trace is a pure function of its :class:`LoadProfile` — replaying the
profile replays the byte-identical trace, which is what lets the scale
benchmark assert the legacy and heap engines agree on every SLO table.

Generation is vectorized (one RNG pass per field, not per request):
producing a million-request trace costs a few hundred milliseconds, so
the load generator never dominates the engine measurement it feeds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.serve.admission import Request
from repro.serve.tenants import TenantSpec

_DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_DATACLASS_SLOTS)
class LoadProfile:
    """Knobs of one generated trace (see ``docs/serving.md``)."""

    seed: int = 2022
    """Master seed; every stream below derives from it."""
    tenants: int = 2_000
    """Distinct tenants; popularity is Zipf-ranked over them."""
    requests: int = 100_000
    """Total arrivals in the trace."""
    zipf_s: float = 1.1
    """Zipf exponent; larger values concentrate traffic on the whales."""
    mean_rate_rps: float = 50_000.0
    """Aggregate offered rate (requests per simulated second), before the
    envelope modulates it."""
    diurnal_amplitude: float = 0.6
    """Peak-to-mean swing of the sinusoidal day/night cycle (0 disables)."""
    diurnal_period_us: float = 5e6
    """One "day" of the compressed diurnal cycle, simulated µs."""
    burst_rate_multiplier: float = 4.0
    """Arrival-rate multiplier inside a burst episode (1 disables)."""
    burst_duration_us: float = 50_000.0
    """Length of one burst episode."""
    burst_every_us: float = 1e6
    """Mean spacing between burst starts (exponential)."""
    size_alpha: float = 2.2
    """Bounded-Pareto shape for op sizes; smaller = heavier tail."""
    size_min: int = 4
    """Smallest square-matmul operand size."""
    size_max: int = 32
    """Largest operand size (the tail is clipped here)."""
    deadline_us: float = 400_000.0
    """Relative deadline stamped on every request (and tenant spec)."""
    rate_limit_headroom: float = 4.0
    """Each tenant's token-bucket rate is its Zipf-expected share of the
    aggregate times this factor, so well-behaved load mostly admits."""
    tenant_queue_depth: int = 4096
    """Per-tenant in-flight cap (``TenantSpec.max_queue_depth``).  Sized so
    the whale tenants — tens of thousands of offered rps at the default
    Zipf shape — are paced by their token buckets, not by queue rejections."""

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be positive, got {self.tenants}")
        if self.requests < 0:
            raise ValueError(f"requests must be non-negative, got {self.requests}")
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        if self.mean_rate_rps <= 0:
            raise ValueError(f"mean_rate_rps must be positive, got {self.mean_rate_rps}")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.burst_rate_multiplier < 1:
            raise ValueError(
                f"burst_rate_multiplier must be >= 1, got {self.burst_rate_multiplier}"
            )
        if not 0 < self.size_min <= self.size_max:
            raise ValueError(
                f"need 0 < size_min <= size_max, got {self.size_min}..{self.size_max}"
            )


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ranks ``1..n`` (weight ∝ 1/rank^s)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    return weights / weights.sum()


def tenant_specs(profile: LoadProfile) -> List[TenantSpec]:
    """One :class:`TenantSpec` per generated tenant.

    Rate limits follow each tenant's expected Zipf share of the aggregate
    (with ``rate_limit_headroom``), so the whales buy proportionally more
    capacity than the tail — tenant ``scale-00000`` is the most popular.
    """
    weights = zipf_weights(profile.tenants, profile.zipf_s)
    specs = []
    for i in range(profile.tenants):
        expected_rps = float(weights[i]) * profile.mean_rate_rps
        rate = max(1.0, expected_rps * profile.rate_limit_headroom)
        specs.append(
            TenantSpec(
                sys.intern(f"scale-{i:05d}"),
                rate_limit_rps=rate,
                burst=max(4, int(rate / 50.0)),
                max_queue_depth=profile.tenant_queue_depth,
                deadline_us=profile.deadline_us,
                memory_quota_bytes=256 << 20,
            )
        )
    return specs


def _arrival_times(profile: LoadProfile, rng: np.random.Generator) -> np.ndarray:
    """Arrival instants (µs) of an inhomogeneous Poisson process.

    Uses the standard thinning-free warp: draw homogeneous exponential
    gaps at the *peak* rate, then keep each arrival with probability
    ``rate(t)/peak`` — vectorized over generous over-draws until the
    requested count is reached.
    """
    n = profile.requests
    if n == 0:
        return np.empty(0, dtype=np.float64)
    base_rate = profile.mean_rate_rps / 1e6  # arrivals per µs
    peak = base_rate * (1.0 + profile.diurnal_amplitude) * profile.burst_rate_multiplier
    kept: List[np.ndarray] = []
    total = 0
    t0 = 0.0
    # Burst schedule long enough to cover any plausible horizon.
    horizon_guess = 4.0 * n / base_rate
    n_bursts = max(1, int(horizon_guess / profile.burst_every_us) + 2)
    burst_starts = np.cumsum(
        rng.exponential(profile.burst_every_us, size=n_bursts)
    )
    while total < n:
        draw = max(1024, int((n - total) * 1.5))
        gaps = rng.exponential(1.0 / peak, size=draw)
        times = t0 + np.cumsum(gaps)
        t0 = float(times[-1])
        rate = base_rate * (
            1.0
            + profile.diurnal_amplitude
            * np.sin(2.0 * np.pi * times / profile.diurnal_period_us)
        )
        if profile.burst_rate_multiplier > 1.0:
            idx = np.searchsorted(burst_starts, times, side="right") - 1
            since_start = np.where(
                idx >= 0, times - burst_starts[np.maximum(idx, 0)], np.inf
            )
            in_burst = since_start < profile.burst_duration_us
            rate = rate * np.where(in_burst, profile.burst_rate_multiplier, 1.0)
        accept = rng.random(draw) < rate / peak
        kept.append(times[accept])
        total += int(accept.sum())
    return np.concatenate(kept)[:n]


def _op_sizes(profile: LoadProfile, rng: np.random.Generator) -> np.ndarray:
    """Bounded-Pareto op sizes in ``[size_min, size_max]`` (heavy tail)."""
    raw = profile.size_min * (1.0 + rng.pareto(profile.size_alpha, size=profile.requests))
    return np.minimum(raw, profile.size_max).astype(np.int64)


def generate_trace(profile: LoadProfile) -> Tuple[List[TenantSpec], List[Request]]:
    """The full seeded trace: tenant specs plus arrival-ordered requests.

    Deterministic: two calls with equal profiles return byte-identical
    traces (same rids, arrival instants, sizes, data seeds).
    """
    rng = np.random.default_rng(profile.seed)
    specs = tenant_specs(profile)
    weights = zipf_weights(profile.tenants, profile.zipf_s)
    arrivals = _arrival_times(profile, rng)
    tenant_idx = rng.choice(profile.tenants, size=profile.requests, p=weights)
    sizes = _op_sizes(profile, rng)
    data_seeds = rng.integers(0, 2**32, size=profile.requests)
    names = [spec.name for spec in specs]
    counters = [0] * profile.tenants
    deadline = profile.deadline_us
    requests: List[Request] = []
    append = requests.append
    for i in range(profile.requests):
        ti = int(tenant_idx[i])
        tenant = names[ti]
        seq = counters[ti]
        counters[ti] = seq + 1
        t = float(arrivals[i])
        append(
            Request(
                tenant=tenant,
                rid=f"{tenant}-{seq:07d}",
                arrival_us=t,
                deadline_us=t + deadline,
                size=int(sizes[i]),
                data_seed=int(data_seeds[i]),
            )
        )
    return specs, requests


def synthetic_service_model(
    base_us: float = 18.0, per_cell_us: float = 0.035
) -> "SyntheticModel":
    """A deterministic service-time model for scale sweeps.

    ``service = base + per_cell · size²`` µs — a pure function of the
    request, so both scheduler engines observe identical service times and
    their SLO tables can be compared byte-for-byte without running a
    million real enclave matmuls.  The defaults approximate the real
    worker's measured per-request cost on the figure-9 testbed.
    """
    return SyntheticModel(base_us, per_cell_us)


class SyntheticModel:
    """Callable service-time model (named class so reports can repr it)."""

    __slots__ = ("base_us", "per_cell_us")

    def __init__(self, base_us: float, per_cell_us: float) -> None:
        self.base_us = base_us
        self.per_cell_us = per_cell_us

    def __call__(self, request: Request) -> float:
        return self.base_us + self.per_cell_us * (request.size * request.size)

    def __repr__(self) -> str:
        return f"SyntheticModel(base_us={self.base_us}, per_cell_us={self.per_cell_us})"
