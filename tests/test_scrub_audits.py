"""Every scrub and KV-leak audit finds one planted non-zero byte.

The audits (paper section IV-D, attack A3) share one predicate, a
full-page compare against ``ZERO_PAGE``.  Each test plants a single byte —
low (``0x01``) and high (``0x80``) bit — at every page offset class (the
first two bytes, either side of the first 8-byte word boundary, the byte
before the midpoint, the start of the last word, the last byte) and checks
that the audit counts it, while untouched and scrubbed pages still pass (for the
LLM crash audit, ``tests/test_llm.py`` runs the same crash unplanted).
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterNode, MigrationManager
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.serve import LLMEngine, TenantSpec, llm_arrivals
from repro.systems import CronusSystem, TestbedConfig
from repro.workloads.llm import LLMConfig, PagedKVCache

PLANT_OFFSETS = (0, 1, 7, 8, 2047, 4088, 4095)
PLANT_VALUES = (0x01, 0x80)

planted = pytest.mark.parametrize(
    "offset,value",
    [(o, v) for o in PLANT_OFFSETS for v in PLANT_VALUES],
    ids=lambda x: f"{x:#x}",
)


@planted
def test_page_is_zero_reports_planted_byte(offset, value):
    mem = PhysicalMemory(16 * PAGE_SIZE)
    mem.write(5 * PAGE_SIZE + offset, bytes([value]))
    assert not mem.page_is_zero(5)
    assert mem.page_is_zero(4) and mem.page_is_zero(6)
    mem.zero_range(5 * PAGE_SIZE, PAGE_SIZE)
    assert mem.page_is_zero(5)


def kv_cache():
    system = CronusSystem(TestbedConfig(num_gpus=1))
    partition = system.spm.partition_for_device("gpu0")
    return system, PagedKVCache(system.spm, partition, LLMConfig())


@planted
def test_kv_scan_counts_planted_byte(offset, value):
    system, cache = kv_cache()
    cache.append_token("seq-a")  # fresh, never-written pages
    assert cache.leaked_blocks == 0
    pages = cache.pages_of("seq-a")
    cache.release("seq-a")  # scrubbed and recycled
    # The last page of the block: the scan must get through all of them.
    system.platform.memory.write(pages[-1] * PAGE_SIZE + offset, bytes([value]))
    cache.append_token("seq-b")
    assert cache.pages_of("seq-b") == pages
    assert cache.leaked_blocks == 1


@pytest.fixture
def session_node():
    node = ClusterNode("node0")
    migration = MigrationManager()
    page = migration.ensure_session(node, "t0").pages[0]
    return node, migration, page


@planted
def test_migration_audit_counts_planted_byte(session_node, offset, value):
    node, migration, page = session_node
    node.system.fail_partition("gpu0", background=True)  # the SPM scrub
    assert migration.audit_scrub(node) == 1
    assert migration.scrub_violations == 0
    node.system.platform.memory.write(page * PAGE_SIZE + offset, bytes([value]))
    assert migration.audit_scrub(node) == 1
    assert migration.scrub_violations == 1


def crash_run(engine):
    tenant = engine.add_tenant(
        TenantSpec(
            "acme", rate_limit_rps=4_000.0, burst=64, deadline_us=10_000_000.0,
        )
    )
    arrivals = llm_arrivals(
        tenant, engine.config, count=24, seed=7, mean_interarrival_us=400.0
    )
    return engine.run(arrivals, crash_events=[(2_500.0, "gpu0")])


@planted
def test_llm_crash_audit_counts_planted_byte(monkeypatch, offset, value):
    engine = LLMEngine(CronusSystem(TestbedConfig(num_gpus=2)), max_running=4)
    system = engine.system
    victims = []
    pages_of = PagedKVCache.pages_of

    def recording_pages_of(cache, rid):
        pages = pages_of(cache, rid)
        victims.extend(pages)
        return pages

    fail_partition = system.fail_partition

    def fail_missing_one_byte(device, **kwargs):
        # Recovery scrubs, then one byte of a victim KV page survives.
        rec = fail_partition(device, **kwargs)
        system.platform.memory.write(victims[-1] * PAGE_SIZE + offset, bytes([value]))
        return rec

    monkeypatch.setattr(PagedKVCache, "pages_of", recording_pages_of)
    monkeypatch.setattr(system, "fail_partition", fail_missing_one_byte)
    report = crash_run(engine)
    assert report.crashes == ("gpu0",)
    assert victims
    assert report.scrub_violations == 1
    assert "1 unscrubbed KV pages after crash" in report.audit()
