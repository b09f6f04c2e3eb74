"""The package imports without ``dataclasses``, and ``detconvex`` itself
imports nothing.

Each ``@dataclass`` decoration generates and compiles its methods at
import time, which every fresh ``detconvex`` process pays; the package's
records are named tuples and ``scalarfun.Value`` subclasses instead.
Each object has one import path, its module's, so ``import detconvex``
loads neither numpy nor a submodule.  The certify path loads neither the
fd oracle nor the acceptance suite, whose kernels are the suite's own.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detconvex"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = {name.split(".")[0] for name in _imported_modules(tree)}
    assert "dataclasses" not in roots


def test_modules_found():
    assert {"cli.py", "scalarfun.py", "certifier.py"} <= {p.name for p in MODULES}


_PROBE = """
import sys
import argparse, json, numpy
before = "dataclasses" in sys.modules
sys.path.insert(0, sys.argv[1])
import detconvex.cli
print(before, "dataclasses" in sys.modules)
"""


def test_importing_the_cli_loads_no_dataclasses():
    out = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    before, after = out
    assert after == before


_SURFACE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import detconvex
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("detconvex."))
public = [name for name in vars(detconvex) if not name.startswith("__")]
print(json.dumps([detconvex.__version__, public, loaded]))
"""


def test_the_package_holds_only_its_version():
    out = subprocess.run(
        [sys.executable, "-I", "-c", _SURFACE_PROBE, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == ["0.1.0", [], []]


_CERTIFY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import detconvex.certifier
print(json.dumps(sorted(m for m in sys.modules if m.startswith("detconvex."))))
"""


def test_the_certify_path_loads_no_suite_code():
    out = subprocess.run(
        [sys.executable, "-I", "-c", _CERTIFY_PROBE, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = json.loads(out)
    assert "detconvex.certifier" in loaded
    assert "detconvex.detcalculus" not in loaded and "detconvex.selftest" not in loaded
