"""The request ledger and the one exactly-once audit.

Every admitted request settles exactly once — completed, expired or
rejected after admission — on every engine, and the single-node, LLM and
cluster reports all audit that rule through
:func:`~repro.serve.ledger.exactly_once_violations`, so one violation
reads the same whichever report finds it.
"""

from __future__ import annotations

import pytest

from repro.cluster.serve import ClusterReport
from repro.faults.injector import CRASH, FaultPlan, FaultRule, armed
from repro.serve import TenantSpec, llm_arrivals
from repro.serve.admission import REJECT_NO_PARTITION
from repro.serve.frontend import ServingReport
from repro.serve.llm import LLMReport
from tests.test_cluster_serve import build as build_cluster
from tests.test_cluster_serve import small_trace
from tests.test_llm import build_engine, one_tenant_run
from tests.test_serving import two_tenant_scenario


def assert_settled_once(nodes):
    """Admitted (over every node) is the disjoint union of the completed,
    expired and rejected-after-admit sets (over every node)."""
    admitted = set().union(*(n.admitted for n in nodes))
    settled = [
        s for n in nodes for s in (set(n.completed), n.expired, n.rejected_after_admit)
    ]
    assert set().union(*settled) == admitted
    assert sum(map(len, settled)) == len(admitted)


# -- the settlement rule on every engine's crash scenarios --------------------

def serving_crash():
    serving, arrivals = two_tenant_scenario()
    return [serving.run(arrivals, crash_events=[(30_000.0, "gpu0")])]


def serving_injected_crash():
    serving, arrivals = two_tenant_scenario()
    plan = FaultPlan(
        seed=5,
        rules=(FaultRule(site="srpc.enqueue", action=CRASH, nth=30, target="gpu0"),),
    )
    with armed(plan, crash_handler=serving.injected_crash):
        return [serving.run(arrivals)]


def llm_crash():
    engine = build_engine(max_running=4)
    return [one_tenant_run(engine, crash_events=[(2_500.0, "gpu0")])]


def llm_injected_crash():
    engine = build_engine(max_running=4)
    plan = FaultPlan(
        seed=3,
        rules=(FaultRule(site="llm.decode.step", action=CRASH, nth=10, target="gpu0"),),
    )
    with armed(plan, crash_handler=engine.crash_device):
        return [one_tenant_run(engine)]


def cluster_node_kill():
    specs, requests = small_trace(requests=500, rate=150_000.0)
    serving = build_cluster(3)
    serving.add_tenants(specs)
    report = serving.run(requests, node_kill_events=[(1_500.0, "node1")])
    assert report.migrated_requests > 0
    return list(report.per_node.values())


@pytest.mark.parametrize(
    "scenario",
    [serving_crash, serving_injected_crash, llm_crash, llm_injected_crash,
     cluster_node_kill],
    ids=lambda f: f.__name__,
)
def test_crash_scenarios_settle_every_admitted_request_once(scenario):
    assert_settled_once(scenario())


# -- the LLM engine's rejected-after-admit path --------------------------------

def test_llm_sequence_pinned_to_unmanaged_device_is_rejected_after_admit():
    engine = build_engine(num_gpus=2, max_running=4)
    pinned = engine.add_tenant(TenantSpec("pinned", device_name="gpu9"))
    free = engine.add_tenant(TenantSpec("free"))
    arrivals = llm_arrivals(
        pinned, engine.config, count=6, seed=1, mean_interarrival_us=400.0
    ) + llm_arrivals(free, engine.config, count=6, seed=2, mean_interarrival_us=400.0)
    report = engine.run(arrivals)
    assert report.audit() == []
    pinned_rids = {r.rid for r in arrivals if r.tenant == "pinned"}
    assert report.rejected_after_admit == pinned_rids
    assert pinned_rids <= report.admitted
    assert report.sequences_finished == 6
    account = engine.slo.accounts()["pinned"]
    assert account.rejected == {REJECT_NO_PARTITION: 6}
    assert_settled_once([report])


# -- one audit, three reports --------------------------------------------------

def serving_report(admitted=(), completed=(), expired=(), rejected_after=(),
                   duplicates_avoided=0):
    return ServingReport(
        slo_text="", fingerprint="", makespan_us=0.0,
        admitted=set(admitted), completed=dict.fromkeys(completed, 1.0),
        expired=set(expired), rejected_after_admit=set(rejected_after),
        crashes=(), wrong_results=0, duplicates_avoided=duplicates_avoided,
        batcher_stats={}, worker_stats={},
    )


def llm_report(admitted=(), completed=(), expired=(), rejected_after=()):
    return LLMReport(
        token_table="", token_fingerprint="", slo_table="", slo_fingerprint="",
        makespan_us=0.0, total_tokens=0, sequences_finished=len(completed),
        sequences_expired=len(expired), sequences_preempted=0, reprefills=0,
        crashes=(), scrub_violations=0, kv_leaks=0, iterations=0,
        batcher_stats={}, kv_stats={}, streamer_stats={},
        completed=dict.fromkeys(completed, 1.0), admitted=set(admitted),
        expired=set(expired), rejected_after_admit=set(rejected_after),
    )


def cluster_report(nodes, orphaned=0):
    return ClusterReport(
        node_names=tuple(nodes), slo_text="", fingerprint="", makespan_us=0.0,
        per_node=nodes, routed={}, steals=0, unroutable=0, node_kills=(),
        migrations=(), migrated_requests=0, orphaned=orphaned,
        scrub_pages_audited=0, scrub_violations=0, restore_mismatches=0,
    )


def test_llm_audit_checks_each_rid_not_just_counts():
    # "a" settled twice and "b" never: the counts still add up (2 admitted,
    # 1 finished + 1 expired), which a count-only audit takes as clean.
    report = llm_report(admitted="ab", completed="a", expired="a")
    assert report.audit() == [
        "a: both completed and expired",
        "b: admitted but never completed nor expired",
    ]


#: kind -> (one node's settlements, or per-node settlements; orphaned;
#: the audit's messages).
VIOLATIONS = {
    "double settlement": (
        dict(admitted="ab", completed="a", expired="ab"), 0,
        ["a: both completed and expired"],
    ),
    "settled after rejection": (
        dict(admitted="ab", completed="ab", rejected_after="b"), 0,
        ["b: both completed and rejected_after_admit"],
    ),
    "lost": (
        dict(admitted="abc", completed="a", expired="b"), 0,
        ["c: admitted but never completed nor expired"],
    ),
    "completed without admission": (
        dict(admitted="a", completed="ab"), 0,
        ["b: completed without admission"],
    ),
    "duplicates": (
        dict(admitted="a", completed="a", duplicates_avoided=2), 0,
        ["2 completed request(s) were re-queued"],
    ),
    "completed on two nodes": (
        {"node0": dict(admitted="a", completed="a"),
         "node1": dict(admitted="a", completed="a")}, 0,
        ["a: completed on 2 nodes ['node0', 'node1']"],
    ),
    "orphaned": (
        dict(admitted="a", completed="a"), 3,
        ["3 migrated request(s) orphaned"],
    ),
}


def reports(kind):
    """The reports that can express ``kind``: only a cluster report has
    several nodes or orphans, and only the LLM report lacks a
    ``duplicates_avoided`` count."""
    given, orphaned, _ = VIOLATIONS[kind]
    if "node0" in given or orphaned:
        return ["cluster"]
    if "duplicates_avoided" in given:
        return ["cluster", "serving"]
    return ["cluster", "serving", "llm"]


def audit(kind, report):
    given, orphaned, _ = VIOLATIONS[kind]
    if report == "serving":
        return serving_report(**given).audit_exactly_once()
    if report == "llm":
        return llm_report(**given).audit()
    per_node = given if "node0" in given else {"node0": given}
    return cluster_report(
        {name: serving_report(**sets) for name, sets in per_node.items()},
        orphaned=orphaned,
    ).audit_exactly_once()


@pytest.mark.parametrize(
    "kind, report", [(kind, report) for kind in VIOLATIONS for report in reports(kind)]
)
def test_every_report_words_a_violation_the_same(kind, report):
    assert audit(kind, report) == VIOLATIONS[kind][2]
