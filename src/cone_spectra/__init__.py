"""Spectral, index-theoretic and geometric data of associative and special
Lagrangian cones in R^7 / C^3.

Public names are resolved lazily (PEP 562): ``import cone_spectra`` loads no
submodule, and ``cone_spectra.<name>`` imports only the submodule defining it,
so the exact core never pays for numpy.
"""

import importlib

__version__ = "0.1.0"

#: public names by the submodule that defines them
_EXPORTS = {
    "errors": (
        "ConeSpectraError",
        "CutoffExceeded",
        "DegenerateAngles",
        "DegenerateFrame",
        "FitUnstable",
        "InvalidMesh",
        "MissingStratumData",
        "MissingSymmetryData",
        "NoConvergence",
        "NonIntegerIndex",
        "NonPositiveArea",
        "NonPositiveDefinite",
        "QuadratureFailure",
        "RateOnWall",
        "ValidationError",
    ),
    "fredholm": (
        "AC",
        "CS",
        "EndSpec",
        "OperatorSpec",
        "ac_sl_kernel_dim",
        "cs_moduli_virtual_dim",
        "index",
        "index_report",
        "wall_crossing",
        "with_rates",
    ),
    "geometry": (
        "CalibrationReport",
        "DecayFit",
        "LawlorAngles",
        "LawlorParams",
        "PlanePair",
        "SurfaceSample",
        "hl_branch_deviation_magnitude",
        "hl_cone_sampler",
        "hl_decay_fit",
        "hl_embed",
        "hl_link_sampler",
        "hl_smoothing_sampler",
        "hl_xi_relation_residual",
        "jordan_angles",
        "lawlor_angles",
        "lawlor_decay_fit",
        "lawlor_embed",
        "lawlor_P",
        "lawlor_profile",
        "lawlor_sampler",
        "lawlor_solve",
        "transverse_plane_pair",
        "verify_special_lagrangian",
    ),
    "indicial": (
        "JACOBI_CONVENTION",
        "IndicialRoot",
        "JacobiSpectrum",
        "KernelTable",
        "SLConeSpec",
        "Window",
        "d_lambda",
        "indicial_roots",
        "jacobi_spectrum",
        "morse_index",
        "symmetry_check",
        "table_symmetry",
    ),
    "mesh": (
        "TriMesh",
        "clifford_torus_mesh",
        "icosphere",
        "load_off",
        "mesh_spectrum",
        "save_off",
    ),
    "presets": (
        "hl_cone",
        "hl_cone_spec",
        "plane_cone",
        "plane_cone_spec",
        "plane_pair_cone",
        "torus_cone",
        "torus_cone_spec",
    ),
    "spectra": (
        "LinkTopology",
        "Spectrum",
        "TorusMetric",
        "clifford_torus_metric",
        "sphere_spectrum",
        "torus_spectrum",
    ),
    "stability": (
        "ConeComponent",
        "ConeData",
        "DLambdaTable",
        "NullTorsionBound",
        "is_rigid",
        "null_torsion_bound",
        "s_ind",
        "s_ind_minus",
        "s_ind_plus",
        "sl_lower_bound",
        "stability_report",
    ),
}
_SUBMODULES = (*_EXPORTS, "g2", "quadrature")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted((*_HOME, *_SUBMODULES))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
