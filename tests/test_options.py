"""Option guard: every settable option in the package has a caller.

An option that no caller ever sets is a branch no workload runs and one
more configuration every test and benchmark would have to cover.  For
each public function and method (``__init__`` included) in every module
of ``repro``, every keyword-only parameter with a default must be passed
by name at least once somewhere in the repository's code: the package
itself, the tests, benchmarks, perfbench, examples or scripts.  A value that is fixed everywhere belongs in a
module constant.  ``serve/legacy.py`` is the frozen reference engine the
equivalence suite compares against, so it is exempt.

Calls are matched by keyword name alone, because tests and benchmarks
forward options through their own construction helpers (``build(ServingSystem,
specs, autoscaler=...)``), so the callee's name says little.  The guard
therefore never reports an option that is set, and it may miss one whose
name some other call happens to use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXEMPT = (SRC / "serve" / "legacy.py",)
CALLER_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples", "scripts")


def keyword_options(source: str):
    """(qualified name, parameter) for each keyword-only parameter with a
    default on a public function or a public class's public method."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and node.name != "__init__":
                    continue
                if node.name == "__init__" and owner is None:
                    continue
                qual = node.name if owner is None else f"{owner}.{node.name}"
                args = node.args
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((qual, arg.arg))

    visit(ast.parse(source).body, None)
    return out


def keywords_passed(source: str):
    """Every keyword name some call in ``source`` passes explicitly."""
    return {
        keyword.arg
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    }


def unset_options(defined, passed):
    return sorted(f"{qual}({param}=)" for qual, param in defined if param not in passed)


def test_every_keyword_option_is_set_by_some_caller():
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        if path in EXEMPT:
            continue
        rel = path.relative_to(SRC)
        defined.extend(
            (f"{rel}:{qual}", param)
            for qual, param in keyword_options(path.read_text())
        )
    passed = set()
    for name in CALLER_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            passed |= keywords_passed(path.read_text())
    assert unset_options(defined, passed) == []


def test_guard_flags_only_the_options_no_call_sets():
    source = (
        "class Engine:\n"
        "    def __init__(self, *, used=1, unused=2, required):\n"
        "        pass\n"
        "    def run(self, *, fast=False):\n"
        "        pass\n"
        "    def _private(self, *, knob=0):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def run(self, *, dial=0):\n"
        "        pass\n"
        "def build(*, seed=0, **kwargs):\n"
        "    return Engine(used=3, required=4, **kwargs).run(fast=True)\n"
    )
    defined = keyword_options(source)
    assert unset_options(defined, keywords_passed(source)) == [
        "Engine.__init__(unused=)",
        "build(seed=)",
    ]
