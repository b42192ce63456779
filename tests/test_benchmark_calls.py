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



# the layers each traced run must call: one exact-sweep cycle, then one op of each numeric kind
TRACED_LAYERS = {
    "exact": ("spectra", "indicial", "stability", "fredholm", "presets"),
    "lawlor": ("geometry", "quadrature", "g2"),
    "hl": ("geometry", "g2"),
    "g2": ("g2",),
    "icosphere": ("mesh",),
    "clifford": ("mesh",),
}


def _bindings(tracer_module) -> list[tuple]:
    """(holder, name, object) for every name of the traced modules and classes."""
    import importlib
    import sys

    for layer in tracer_module.LAYERS:
        importlib.import_module(f"cone_spectra.{layer}")
    holders = [m for n, m in sys.modules.items() if n.split(".")[0] == "cone_spectra"]
    holders += [
        getattr(sys.modules[f"cone_spectra.{layer}"], name)
        for layer, names in tracer_module.METHOD_CLASSES.items()
        for name in names
    ]
    return [(holder, name, obj) for holder in holders for name, obj in list(vars(holder).items())]


def test_traced_cycles_check_clean_and_count_every_layer(tmp_path):
    tracer_module = _load("tracer")
    exact, numeric = _load("exact_sweep"), _load("numeric_sweep")
    before = _bindings(tracer_module)
    tracer = tracer_module.Tracer()
    runs = {"exact": [(exact.ExactOps(), spec) for spec in exact.cycle(random.Random(1))]}
    numeric_ops = numeric.NumericOps(tmp_path)
    for kind, size in (("lawlor", None), ("hl", None), ("g2", None), ("icosphere", 2), ("clifford", 24)):
        runs[kind] = [(numeric_ops, numeric.make_op(random.Random(1), kind, size))]
    calls = {}
    tracer.install()
    try:
        assert any(vars(h).get(name) is not obj for h, name, obj in before)
        for kind, ops in runs.items():
            tracer.reset()
            for op_set, op in ops:
                assert op_set.check(op, op_set.run(op)) == [], kind
            calls[kind] = tracer.summary()
    finally:
        tracer.uninstall()
    assert [(h, name) for h, name, obj in before if vars(h).get(name) is not obj] == []
    for kind, layers in TRACED_LAYERS.items():
        assert all(calls[kind][f"{layer}.calls"] > 0 for layer in layers), (kind, calls[kind])
