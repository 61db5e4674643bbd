"""Source hygiene checks that need no linter: unused imports and
unreferenced definitions in the package, the names the benchmark's tracer
wraps, and the modules an import pulls in."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zmeasures").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"


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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES + [ORACLES], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_finds_one(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nimport sys  # noqa\nfrom math import pi, tau\nprint(tau)\n")
    assert _unused_imports(src) == ["m.py:1 os", "m.py:3 pi"]


# Definitions that only the tests call but that the README names, in
# backquotes, as the package's own.
README_NAMES = ("cocycle", "project", "schur_correlation")


def _unreferenced_definitions(root: Path, allowed=()) -> list[str]:
    """Functions, classes and methods defined in ``root/src/zmeasures``
    (dunders excepted) that no module under ``root/src`` or
    ``root/perfbench`` uses, and the stale entries of ``allowed``.

    A method or property counts as used only where an ``ast.Attribute``
    names it, so a local variable of the same name does not count; any
    other definition where an ``ast.Name``, an ``ast.Attribute`` or an
    ``__all__`` does.  What the tests reference does not count.  The names
    in ``allowed`` need no use; an entry is stale when no definition
    carries its name or when the package uses it anyway."""
    names, attrs = set(), set()
    for path in (p for d in ("src", "perfbench") for p in sorted((root / d).rglob("*.py"))):
        tree = ast.parse(path.read_text())
        names |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused, defined, used = [], set(), set()
    for path in sorted((root / "src" / "zmeasures").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {n: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, kinds) or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            owner = owners.get(node)
            defined.add(node.name)
            if node.name in (attrs if owner else names | attrs):
                used.add(node.name)
            elif node.name not in allowed:
                unused.append((path.name, node.lineno, f"{owner}.{node.name}" if owner else node.name))
    stale = [
        f"allow-list {name}: {'used' if name in used else 'not defined'}"
        for name in allowed
        if name in used or name not in defined
    ]
    return [f"{name}:{line} {label}" for name, line, label in sorted(unused)] + stale


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= set(ast.literal_eval(node.value))
    return out


def test_every_definition_is_referenced():
    assert _unreferenced_definitions(ROOT, README_NAMES) == []
    spans = " ".join(re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text()))
    assert [name for name in README_NAMES if name not in re.findall(r"\w+", spans)] == []


def test_unreferenced_definition_check_finds_one(tmp_path):
    package = tmp_path / "src" / "zmeasures"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "m.py").write_text(
        "__all__ = ['exported']\n"
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    @property\n"
        "    def rows(self): return 1\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def tested(): pass\n"
        "def exported(): pass\n"
        "def documented(): pass\n"
        "def listed_but_used(): pass\n"
        "def count(rows):\n"
        "    return len(rows)\n"
        "A().used()\n"
        "print(helper, listed_but_used, count)\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("import zmeasures.m\n")
    (tmp_path / "tests" / "test_m.py").write_text("from zmeasures.m import A, tested\ntested()\nA().rows\n")
    allowed = ("documented", "listed_but_used", "gone")
    assert _unreferenced_definitions(tmp_path, allowed) == [
        "m.py:5 A.unused",
        "m.py:7 A.rows",
        "m.py:9 orphan",
        "m.py:10 tested",
        "allow-list listed_but_used: used",
        "allow-list gone: not defined",
    ]


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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)


def test_import_loads_no_scipy():
    """The package runs on numpy and mpmath alone; importing scipy would
    add about a quarter of a second to every process's start-up."""
    modules = ", ".join(f"zmeasures.{p.stem}" for p in SOURCES if p.stem != "__init__")
    code = f"import sys, {modules}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_python(code).stdout.strip() == "[]"


def test_correlations_load_no_mpmath():
    """Only W below ASYMPTOTIC_X needs mpmath, so it is imported at the first
    such call: the CLI's import, a lattice correlation and a continuum
    correlation, whose tables are seeded at x = 200, leave it unloaded."""
    code = (
        "import sys, zmeasures.cli\n"
        "from zmeasures.correlations import continuum_correlation\n"
        "from zmeasures.measures import ZParams, lattice_correlation\n"
        "lattice_correlation(['3/2', '7/2'], ZParams(0.3 + 0.4j, 0.5, 0.6), 16)\n"
        "continuum_correlation([0.8, 1.7], 0.3 + 0.4j)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    assert _fresh_python(code).stdout.strip() == "[]"


def test_whittaker_readme_line_loads_mpmath_and_prints_reference():
    """The README ``whittaker`` line needs mpmath, builds the context on its
    first W, and prints the stdout stored for it byte for byte."""
    reference = json.loads((ROOT / "perfbench" / "reference" / "cli.json").read_text())
    op = next(op for op in reference["ops"] if op["id"] == "whittaker")
    code = (
        "import contextlib, io, sys\n"
        "from zmeasures import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.run({op['argv']!r})\n"
        "print(repr((code, 'mpmath' in sys.modules, out.getvalue())))"
    )
    got = ast.literal_eval(_fresh_python(code).stdout)
    assert got == (op["expect"]["returncode"], True, op["expect"]["stdout"])
