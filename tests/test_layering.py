"""Layering guard: the guarded layers use only public names.

A cluster drives its nodes, and the gateway drives the cluster, through
their public interfaces, the way mEnclaves meet only through sRPC; every
other layer keeps to the same rule.  This test fails on any read or write
of an ``_``-prefixed attribute of an object other than ``self`` or ``cls``
in those packages (dunders such as ``__name__`` are public protocol and
allowed).

Instrumentation sites call the span recorder and the metrics registry
unconditionally: disabled, they are null objects.  So no module outside
``obs/`` reads an ``enabled`` flag, except the event tracer's own
(``metrics/trace.py``) and the CLI's message when observability is off.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GUARDED = (
    "cluster", "gateway", "serve", "sim", "hw", "mos", "enclave", "crypto", "metrics",
    "obs", "accel", "attacks", "dispatch", "faults", "rpc", "secure", "systems",
    "workloads",
)
ENABLED_READERS = ("obs/", "metrics/trace.py", "__main__.py")


def private_accesses(source: str):
    """(line, expression) of every cross-object private attribute access."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        out.append((node.lineno, ast.unparse(node)))
    return out


def guarded_modules():
    return sorted(p for pkg in GUARDED for p in (SRC / pkg).rglob("*.py"))


@pytest.mark.parametrize(
    "path", guarded_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_cross_object_private_access(path):
    assert private_accesses(path.read_text()) == []


def test_guard_catches_private_reads_and_writes():
    source = (
        "def f(self, sv, cluster):\n"
        "    self._ok = sv.public\n"
        "    sv._now = 1\n"
        "    return cluster._states[0], type(sv).__name__\n"
    )
    assert [line for line, _ in private_accesses(source)] == [3, 4]


def enabled_reads(source: str):
    """Line of every load of an ``.enabled`` attribute (stores are allowed)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
        and isinstance(node.ctx, ast.Load)
    ]


def test_no_enabled_guard_outside_obs():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = [] if rel.startswith(ENABLED_READERS) else enabled_reads(path.read_text())
        if lines:
            found[rel] = lines
    assert found == {}


def test_enabled_scan_allows_stores_only():
    source = (
        "def f(platform, obs):\n"
        "    platform.obs.enabled = True\n"
        "    if obs.enabled:\n"
        "        pass\n"
        "    return platform.metrics.enabled\n"
    )
    assert enabled_reads(source) == [3, 5]
