"""Static checks of the package source."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hyp3"


def _unused_imports(text: str) -> list[str]:
    """Names a module imports and never reads, less those its ``__all__``
    lists and those of import lines marked ``# noqa: F401``."""
    tree = ast.parse(text)
    lines = text.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    text = ("import math\nimport os  # noqa: F401\nfrom typing import (Any,\n    Sequence)\n"
            "__all__ = ['Any']\nx = math.pi\n")
    assert _unused_imports(text) == ["line 3: Sequence"]


def _undefined_exports(text: str) -> list[str]:
    """Names a module's ``__all__`` lists that no top-level statement of the
    module binds: a def, a class, an assignment or an import."""
    bound, exported = set(), []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_defines_every_name_it_exports(path):
    assert _undefined_exports(path.read_text()) == []


def test_a_stale_export_is_found():
    text = ("import math\nfrom .x import y as z\nA, B = 1, 2\nC: int = 3\ndef f():\n    D = 4\n"
            "class K:\n    E = 5\n"
            "__all__ = ['math', 'z', 'A', 'B', 'C', 'D', 'E', 'f', 'K', 'TauPoly']\n")
    assert _undefined_exports(text) == ["D", "E", "TauPoly"]


def _foreign_imports(text: str) -> list[str]:
    """Modules a module imports from outside the standard library, numpy and
    hyp3 itself: the package depends on numpy alone (``pyproject.toml``), and
    scipy is a dev extra, for the test oracles and perfbench."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is hyp3's
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"numpy", "hyp3"}]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library_numpy_and_hyp3(path):
    assert _foreign_imports(path.read_text()) == []


def test_an_import_from_outside_the_dependencies_is_found():
    text = ("from __future__ import annotations\nimport math, scipy\nimport numpy as np\n"
            "from . import expr\nfrom hyp3.errors import ExprError\n"
            "def f():\n    from scipy.integrate import DOP853\n")
    assert _foreign_imports(text) == ["line 2: scipy", "line 7: scipy.integrate"]
