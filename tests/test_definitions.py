"""Definition guard: every public definition in the package has a caller.

A public class, function or method that nothing references is code every
reader must still read and every refactor must still carry.  For each one
under ``src/repro``, its name must appear somewhere in the repository's
code outside its own ``def``: the package itself, the tests, benchmarks,
perfbench, examples or scripts.  A name counts as a plain name, an
attribute, an imported name, or an identifier inside a string constant,
so perfbench's ``"module:Class.method"`` layer strings count as callers.
``serve/legacy.py`` is the frozen reference engine the equivalence suite
compares against, so it is exempt, as in ``test_options.py``.

References are matched by bare name, so the guard never reports a
definition that is used, and it may miss one whose name some other
definition shares.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXEMPT = (SRC / "serve" / "legacy.py",)
CALLER_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples", "scripts")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(source: str):
    """(qualified name, name) of each public class, function and method."""
    out = []

    def visit(body, owner):
        for node in body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            qual = node.name if owner is None else f"{owner}.{node.name}"
            out.append((qual, node.name))
            if isinstance(node, ast.ClassDef):
                visit(node.body, qual)

    visit(ast.parse(source).body, None)
    return out


def references(source: str):
    """Every name ``source`` mentions outside the ``def`` of that name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            # Decorators run outside the body: a registration string such
            # as ``@register_kernel("matmul")`` names the kernel it adds.
            for decorator in node.decorator_list:
                visit(decorator, enclosing)
            enclosing = enclosing | {node.name}
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = tuple(node.name.split(".")) + ((node.asname,) if node.asname else ())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = _IDENTIFIER.findall(node.value)
        found.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            if child not in getattr(node, "decorator_list", ()):
                visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unreferenced(defined, referenced):
    return sorted(qual for qual, name in defined if name not in referenced)


def test_every_public_definition_has_a_caller():
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        if path in EXEMPT:
            continue
        rel = path.relative_to(SRC)
        defined.extend(
            (f"{rel}:{qual}", name) for qual, name in public_definitions(path.read_text())
        )
    referenced = set()
    for name in CALLER_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            referenced |= references(path.read_text())
    assert unreferenced(defined, referenced) == []


def test_guard_flags_only_the_definitions_nothing_references():
    source = (
        "class Engine:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return self.step()\n"
        "    def spin(self):\n"
        "        return self.spin()\n"
        "    def _private(self):\n"
        "        pass\n"
        "def probe():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "LAYER = 'repro.sim:Engine.run'\n"
        "from repro.x import probe as alias\n"
    )
    assert unreferenced(public_definitions(source), references(source)) == [
        "Engine.spin",
        "unused",
    ]
