"""The exact core never imports numpy or scipy and the Lawlor path never
imports scipy (checked on the source); importing the package and running the
exact CLI subcommands load no numpy (checked in a fresh interpreter); the
package's public names resolve lazily to their submodules' objects."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cone_spectra

EXACT_CORE = ("spectra", "indicial", "stability", "fredholm", "presets", "errors")
NUMERIC = {"numpy", "scipy"}
# modules an exact subcommand must not load
NUMERIC_LAYERS = (
    "numpy",
    "scipy",
    "cone_spectra.geometry",
    "cone_spectra.g2",
    "cone_spectra.mesh",
    "cone_spectra.quadrature",
)
EXACT_README_COMMANDS = (
    "spectrum torus --metric 2/3,1/3,2/3 --cutoff 7",
    "spectrum sphere --cutoff 6",
    "indicial --cone hl --window -2:1 --morse --jacobi --symmetry",
    "stability --cone hl --sym-dim 2",
    "stability --cone plane-pair --sym-dim 6",
    "index --kind ac --end hl:-0.9 --cross -0.9:0.5",
)
# the names ``import cone_spectra`` has exported, by defining submodule
PUBLIC_API = {
    "errors": (
        "ConeSpectraError", "CutoffExceeded", "DegenerateAngles", "DegenerateFrame",
        "FitUnstable", "InvalidMesh", "MissingStratumData", "MissingSymmetryData",
        "NoConvergence", "NonIntegerIndex", "NonPositiveArea", "NonPositiveDefinite",
        "QuadratureFailure", "RateOnWall", "ValidationError",
    ),
    "fredholm": (
        "AC", "CS", "EndSpec", "OperatorSpec", "ac_sl_kernel_dim", "cs_moduli_virtual_dim",
        "index", "index_report", "wall_crossing", "with_rates",
    ),
    "geometry": (
        "CalibrationReport", "DecayFit", "LawlorAngles", "LawlorParams", "PlanePair",
        "SurfaceSample", "hl_branch_deviation_magnitude", "hl_cone_sampler", "hl_decay_fit",
        "hl_embed", "hl_link_sampler", "hl_smoothing_sampler", "hl_xi_relation_residual",
        "jordan_angles", "lawlor_P", "lawlor_angles", "lawlor_decay_fit", "lawlor_embed",
        "lawlor_profile", "lawlor_sampler", "lawlor_solve", "transverse_plane_pair",
        "verify_special_lagrangian",
    ),
    "indicial": (
        "IndicialRoot", "JACOBI_CONVENTION", "JacobiSpectrum", "KernelTable", "SLConeSpec",
        "Window", "d_lambda", "indicial_roots", "jacobi_spectrum", "morse_index",
        "symmetry_check", "table_symmetry",
    ),
    "mesh": (
        "TriMesh", "clifford_torus_mesh", "icosphere", "load_off", "mesh_spectrum", "save_off",
    ),
    "presets": (
        "hl_cone", "hl_cone_spec", "plane_cone", "plane_cone_spec", "plane_pair_cone",
        "torus_cone", "torus_cone_spec",
    ),
    "spectra": (
        "LinkTopology", "Spectrum", "TorusMetric", "clifford_torus_metric", "sphere_spectrum",
        "torus_spectrum",
    ),
    "stability": (
        "ConeComponent", "ConeData", "DLambdaTable", "NullTorsionBound", "is_rigid",
        "null_torsion_bound", "s_ind", "s_ind_minus", "s_ind_plus", "sl_lower_bound",
        "stability_report",
    ),
}
SUBMODULES = (*PUBLIC_API, "g2", "quadrature")


def _fresh_interpreter(code: str) -> str:
    src = str(Path(cone_spectra.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip()


def _loaded(names) -> str:
    """Code printing which of ``names`` are in sys.modules, as a JSON list."""
    return f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))\n"


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
    # nor numpy: the package resolves its names lazily
    code = "import json, sys, cone_spectra\n" + _loaded(NUMERIC_LAYERS)
    assert json.loads(_fresh_interpreter(code)) == []


def test_exact_cli_commands_load_no_numpy():
    code = (
        "import contextlib, io, json, sys\n"
        "from cone_spectra import cli\n"
        "cli.build_parser()\n"
        + _loaded(("cone_spectra.indicial", "cone_spectra.fredholm"))
        + f"for command in {list(EXACT_README_COMMANDS)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(command.split()) == 0, command\n"
        + _loaded(NUMERIC_LAYERS)
    )
    after_parser, after_commands = _fresh_interpreter(code).splitlines()
    assert json.loads(after_parser) == []
    assert json.loads(after_commands) == []


def _module_level_imports(source: str) -> set[str]:
    """Modules imported outside function bodies, relative ones as cone_spectra.<name>."""
    found = set()
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module)
            elif node.module:
                found.add(f"cone_spectra.{node.module}")
            else:
                found.update(f"cone_spectra.{alias.name}" for alias in node.names)
        nodes.extend(ast.iter_child_nodes(node))
    return found


def test_import_guard_sees_module_level_imports():
    source = (
        "import numpy.linalg\nfrom . import g2\nfrom .mesh import icosphere\n"
        "if True:\n    from scipy import sparse\n"
        "def f():\n    from . import geometry\n"
    )
    assert _module_level_imports(source) == {
        "numpy.linalg", "cone_spectra.g2", "cone_spectra.mesh", "scipy",
    }


@pytest.mark.parametrize("module", ("cli", "__init__"))
def test_cli_and_package_import_no_numeric_layer_at_module_level(module):
    path = Path(cone_spectra.__file__).parent / f"{module}.py"
    imported = _module_level_imports(path.read_text(encoding="utf-8"))
    assert not {
        name for name in imported
        if any(name == m or name.startswith(m + ".") for m in NUMERIC_LAYERS)
    }


def test_public_api_resolves_lazily():
    names = [name for names in PUBLIC_API.values() for name in names]
    assert sorted(cone_spectra.__all__) == sorted((*names, *SUBMODULES))
    listed = dir(cone_spectra)
    for module, names in PUBLIC_API.items():
        home = importlib.import_module(f"cone_spectra.{module}")
        for name in names:
            assert getattr(cone_spectra, name) is getattr(home, name), name
            assert name in listed
    for module in SUBMODULES:
        assert getattr(cone_spectra, module) is importlib.import_module(f"cone_spectra.{module}")
        assert module in listed
    namespace: dict = {}
    exec("from cone_spectra import *", namespace)
    assert {*names, *SUBMODULES} <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        cone_spectra.no_such_name
