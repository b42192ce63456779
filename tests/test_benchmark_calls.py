"""The benchmark's in-process call forms run against the library.

``perfbench/exact_sweep.py``, ``numeric_sweep.py`` and ``tracer.py`` call
cone_spectra by name; each op below goes through their own ``run`` and
``check``, so a renamed function or changed call form fails here.
"""

import importlib.util
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_sweep_cycle_checks_clean():
    sweep = _load("exact_sweep")
    ops = sweep.ExactOps()
    for spec in sweep.cycle(random.Random(1)):
        assert ops.check(spec, ops.run(spec)) == [], sweep.op_class(spec)


@pytest.mark.parametrize("kind, size", [
    ("lawlor", None), ("hl", None), ("g2", None), ("icosphere", 2), ("clifford", 24),
])
def test_numeric_sweep_op_checks_clean(tmp_path, kind, size):
    sweep = _load("numeric_sweep")
    ops = sweep.NumericOps(tmp_path)
    op = sweep.make_op(random.Random(1), kind, size)
    assert ops.check(op, ops.run(op)) == []


def test_tracer_installs_and_restores():
    from cone_spectra import presets

    original = presets.hl_cone
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert presets.hl_cone is not original
    finally:
        tracer.uninstall()
    assert presets.hl_cone is original
