"""The exact core never imports numpy or scipy and the Lawlor path never
imports scipy (checked on the source), and importing the package does not
load scipy (checked in a fresh interpreter)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cone_spectra

EXACT_CORE = ("spectra", "indicial", "stability", "fredholm", "presets", "errors")
NUMERIC = {"numpy", "scipy"}


def _imported_roots(source: str) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", EXACT_CORE)
def test_exact_core_module_avoids_numpy_and_scipy(module):
    path = Path(cone_spectra.__file__).parent / f"{module}.py"
    assert not _imported_roots(path.read_text(encoding="utf-8")) & NUMERIC


@pytest.mark.parametrize("module", ("geometry", "quadrature"))
def test_lawlor_path_avoids_scipy(module):
    # the angle integrals are closed forms in plain numpy
    path = Path(cone_spectra.__file__).parent / f"{module}.py"
    assert "scipy" not in _imported_roots(path.read_text(encoding="utf-8"))


def test_import_parser_sees_numeric_imports():
    source = "import numpy as np\nfrom scipy.linalg import eigh\nfrom . import mesh\n"
    assert _imported_roots(source) == {"numpy", "scipy"}


def test_package_import_does_not_load_scipy():
    # scipy is imported inside the mesh functions that use it
    code = (
        "import sys, cone_spectra\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(cone_spectra.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
