"""The test suites need nothing that ``pip install -e .[test]`` leaves out:
every module imported by ``tests/*.py`` and ``perfbench/*.py`` is in the
standard library, is ``detconvex`` or a module of the same directory, or
is declared in ``pyproject.toml`` (``dependencies`` or the ``test``
extra)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SUITES = [ROOT / "tests", ROOT / "perfbench"]


def _declared() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def _imports(path: Path) -> set:
    """Top-level names of the absolute imports of one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("suite", SUITES, ids=lambda p: p.name)
def test_every_import_is_declared(suite):
    allowed = set(sys.stdlib_module_names) | {"detconvex"} | _declared()
    local = {p.stem for p in suite.glob("*.py")}
    undeclared = {
        (path.name, name)
        for path in sorted(suite.glob("*.py"))
        for name in _imports(path) - allowed - local
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {sorted(undeclared)}"


def test_the_scan_sees_the_third_party_imports():
    # numpy, pytest, hypothesis and mpmath are each imported somewhere
    found = set().union(*(_imports(p) for suite in SUITES for p in suite.glob("*.py")))
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= found
