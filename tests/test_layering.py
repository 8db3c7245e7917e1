"""Layering guard: the guarded layers use only public names.

A cluster drives its nodes, and the gateway drives the cluster, through
their public interfaces, the way mEnclaves meet only through sRPC; the
serve, sim, hw, mos, enclave, crypto, metrics and obs layers keep to the same
rule.  This test fails on any read or write of an ``_``-prefixed
attribute of an object other than ``self`` or ``cls`` in those packages
(dunders such as ``__name__`` are public protocol and allowed).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GUARDED = (
    "cluster", "gateway", "serve", "sim", "hw", "mos", "enclave", "crypto", "metrics",
    "obs",
)


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
