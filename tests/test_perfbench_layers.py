"""The traced benchmark's entry points still exist.

``perfbench/layers.py`` wraps each layer's public entry points by name
(``module:Class.method``).  A renamed or moved entry point otherwise only
shows up when the traced benchmark run fails; resolving every name here
catches it in the fast test suite.  The file is loaded read-only.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache next to the benchmark
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = dont_write


def entries(layers):
    for layer in layers.LAYERS:
        yield from layer.entries
    yield from layers.SPAN_ENTRIES


def test_every_traced_entry_point_resolves(layers):
    resolved = 0
    for entry in entries(layers):
        _, _, original = layers._resolve(entry)
        assert callable(original), entry
        resolved += 1
    assert resolved > len(layers.LAYERS)

