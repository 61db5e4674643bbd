"""Source hygiene checks that need no linter: unused imports and
unreferenced definitions in the package, the names the benchmark's tracer
wraps, and the modules an import pulls in."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zmeasures").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import and never read in the module, except on a
    line marked ``# noqa``; names listed in ``__all__`` count as read."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_finds_one(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nimport sys  # noqa\nfrom math import pi, tau\nprint(tau)\n")
    assert _unused_imports(src) == ["m.py:1 os", "m.py:3 pi"]


def _unreferenced_definitions(package: list[Path], readers: list[Path]) -> list[str]:
    """Functions, classes and methods defined in ``package`` (dunders
    excepted) whose name no ``ast.Name`` or ``ast.Attribute`` in ``readers``
    mentions."""
    named = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreferenced = []
    for path in package:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in named:
                    unreferenced.append((path.name, node.lineno, node.name))
    return [f"{name}:{line} {defn}" for name, line, defn in sorted(unreferenced)]


def test_every_definition_is_referenced():
    readers = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert _unreferenced_definitions(SOURCES, readers) == []


def test_unreferenced_definition_check_finds_one(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "A().used()\n"
        "print(helper)\n"
    )
    assert _unreferenced_definitions([src], [src]) == ["m.py:4 unused", "m.py:6 orphan"]


def _traced_names() -> list[tuple[str, str]]:
    """The (module, name) pairs of CALLS and GENERATORS in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    pairs = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("CALLS", "GENERATORS") for t in node.targets
        ):
            pairs += [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    return pairs


def test_traced_names_resolve():
    pairs = _traced_names()
    assert ("cli", "continuum_correlation") in pairs
    assert ("measures", "iter_partition_tuples") in pairs
    missing = [
        f"zmeasures.{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"zmeasures.{module}"), name)
    ]
    assert missing == []


def test_import_loads_no_scipy():
    """The package runs on numpy and mpmath alone; importing scipy would
    add about a quarter of a second to every process's start-up."""
    modules = ", ".join(f"zmeasures.{p.stem}" for p in SOURCES if p.stem != "__init__")
    code = f"import sys, {modules}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
