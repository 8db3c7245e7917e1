"""Shared fixtures.

``import repro.workloads`` happens once here so the CUDA kernel library is
registered before any test touches a GPU.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.workloads  # noqa: F401  (registers kernels)
from repro.crypto.keys import PublicKey
from repro.hw.platform import Platform
from repro.systems import CronusSystem, TestbedConfig
from repro.systems.testbed import make_platform


@pytest.fixture
def platform() -> Platform:
    """A bare platform (no devices attached)."""
    return Platform()


@pytest.fixture
def testbed() -> Platform:
    """The standard table-II machine: CPU + 1 GPU + NPU."""
    return make_platform()


@pytest.fixture
def cronus() -> CronusSystem:
    """A booted CRONUS system on the standard testbed."""
    return CronusSystem()


@pytest.fixture
def cronus2gpu() -> CronusSystem:
    """A booted CRONUS system with two GPUs (failover / multi-GPU tests)."""
    return CronusSystem(TestbedConfig(num_gpus=2))


@pytest.fixture
def verify_calls(monkeypatch) -> Counter:
    """Counts every ``PublicKey.verify`` call by the verifying key's label
    (``AtK``, ``dev:<device>``, ``ca:<endorser>``); failed checks count."""
    calls: Counter = Counter()
    verify = PublicKey.verify

    def counting(key, message, signature):
        calls[key.label] += 1
        return verify(key, message, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)
    return calls
