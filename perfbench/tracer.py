"""In-memory span tracer over the public functions of cone_spectra's modules.

``Tracer.install()`` wraps every public function defined in a layer module,
and the public methods of a few classes, by rebinding the name in every
``cone_spectra`` module namespace that holds it (``geometry`` holds
``integrate_tail`` from ``quadrature``, ``cli`` holds ``index_report`` from
``fredholm``, and so on), so calls between modules are seen too.  Methods of
value types (Window, Spectrum, TorusMetric, LawlorParams, TriMesh, ...) are
not wrapped; their time counts toward the calling layer.

Spans are kept in memory with a parent id; a layer's self time is the sum
over its spans of duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

LAYERS = (
    "cli",
    "spectra",
    "indicial",
    "stability",
    "fredholm",
    "presets",
    "geometry",
    "quadrature",
    "g2",
    "mesh",
)

METHOD_CLASSES = {
    "indicial": ("KernelTable",),
    "stability": ("DLambdaTable", "ConeComponent", "ConeData"),
}

# counters computed from arguments or results at a layer boundary
COUNTERS = (
    "spectra.lattice_points",
    "indicial.roots",
    "geometry.samples",
    "geometry.newton_solves",
    "quadrature.integrals",
    "quadrature.points",
    "mesh.vertices",
    "mesh.dense_bytes",
)

# names whose spans are timed as their own per-layer quantity
MESH_LOAD = ("load_off", "icosphere", "clifford_torus_mesh")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        # (id, parent id, layer, name, start, end, time covered by children)
        self.spans: list[tuple] = []
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []  # [span id, child time]
        self._restore: list[tuple] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _call(self, layer: str, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((span_id, parent, layer, name, start, end, frame[1]))
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "torus_spectrum":
            metric, cutoff = _arg(args, kwargs, 0, "metric"), _arg(args, kwargs, 1, "cutoff")
            m_max = math.isqrt(math.floor(float(cutoff) * float(metric.g11))) + 1
            n_max = math.isqrt(math.floor(float(cutoff) * float(metric.g22))) + 1
            c["spectra.lattice_points"] += (2 * m_max + 1) * (2 * n_max + 1)
        elif name == "indicial_roots":
            c["indicial.roots"] += len(result.roots)
        elif name == "verify_special_lagrangian":
            c["geometry.samples"] += result.n_samples
        elif name == "lawlor_solve":
            c["geometry.newton_solves"] += 1
        elif name in ("integrate_real_line", "integrate_tail"):
            c["quadrature.integrals"] += 1
        elif name == "mesh_spectrum":
            nv = len(_arg(args, kwargs, 0, "mesh").vertices)
            c["mesh.vertices"] += nv
            c["mesh.dense_bytes"] += 8 * nv * nv

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        if name == "simpson_doubling":

            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.counts["quadrature.points"] += len(x)
                    return f(x)

                return tracer._call(layer, name, fn, (counted, *args), kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(layer, name, fn, args, kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and listed class methods."""
        modules = {layer: importlib.import_module(f"cone_spectra.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "cone_spectra"]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(layer, name, obj)
                for holder in package:
                    if getattr(holder, name, None) is obj:
                        self._restore.append((holder, name, obj))
                        setattr(holder, name, wrapper)
            for cls_name in METHOD_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, obj in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._restore.append((cls, name, obj))
                    setattr(cls, name, self._wrap(layer, f"{cls_name}.{name}", obj))

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._restore):
            setattr(holder, name, obj)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts = {name: 0 for name in COUNTERS}

    def summary(self) -> dict:
        """Per-layer call counts and self times (ms), plus the counters."""
        calls = {layer: 0 for layer in LAYERS}
        self_ms = {layer: 0.0 for layer in LAYERS}
        load_ms = assembly_ms = 0.0
        for _id, _parent, layer, name, start, end, child in self.spans:
            calls[layer] += 1
            self_ms[layer] += (end - start - child) * 1000.0
            if name in MESH_LOAD:
                load_ms += (end - start) * 1000.0
            elif name == "cotangent_laplacian":
                assembly_ms += (end - start) * 1000.0
        # mesh_spectrum's self time: scaling, the eigensolve and clustering
        eigensolve_ms = sum(
            (end - start - child) * 1000.0
            for _i, _p, _l, name, start, end, child in self.spans
            if name == "mesh_spectrum"
        )
        out = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        out.update({f"{layer}.self_ms": self_ms[layer] for layer in LAYERS})
        out.update(self.counts)
        out["mesh.load_ms"] = load_ms
        out["mesh.assembly_ms"] = assembly_ms
        out["mesh.eigensolve_ms"] = eigensolve_ms
        return out


def merge_summaries(parts: list[dict]) -> dict:
    """Sum per-layer summaries (e.g. of several traced child processes)."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def timed_import() -> dict:
    """Import cone_spectra in a fresh process and describe what it loaded."""
    before = set(sys.modules)
    start = time.perf_counter()
    importlib.import_module("cone_spectra")
    elapsed = time.perf_counter() - start
    loaded = set(sys.modules) - before
    return {
        "import.ms": elapsed * 1000.0,
        "import.modules": len(loaded),
        "import.scipy_loaded": 1 if any(m.split(".")[0] == "scipy" for m in loaded) else 0,
    }
