"""Command-line surface: thin adapters over the library with structured output.

Every subcommand resolves its parameters (flags and an optional flat
key=value config file), calls the library once, and prints a JSON report
embedding the tool version and the resolved config.  Exact rationals are
serialized as "p/q" strings.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 64 usage error.

Each handler imports the layers it runs, so the exact subcommands
(``spectrum torus|sphere``, ``indicial``, ``stability``, ``index``) start
without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    ConeSpectraError,
    FitUnstable,
    NoConvergence,
    QuadratureFailure,
    ValidationError,
)

if TYPE_CHECKING:
    from .indicial import Window
    from .stability import ConeData

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

NUMERICAL_ERRORS = (QuadratureFailure, NoConvergence, FitUnstable)

# Upper bounds on the batch sizes of the numeric checks, each checked (with the
# lower bound 1) before any array is built; the largest allowed call stays
# under 200 MB peak RSS, which a test in tests/test_cli.py checks.
MAX_SAMPLES = 50_000  # hl verify, lawlor verify --samples
MAX_TUPLES = 25_000  # g2 check --tuples
MAX_PROFILE_ROWS = 50_000  # lawlor profile --count
# spectrum mesh: vertices of a builtin (from its parameter) or an OFF file, and
# --count; the largest sparse eigensolve (icosphere:5, count 100) takes ~1.8 s
# and peaks at 95 MB, and clifford:141 at count 100 (spectrum from the grid
# symbol) takes ~0.4 s and peaks at 71 MB
MAX_MESH_VERTICES = 20_000
MAX_MESH_COUNT = 100
# |decimal exponent| of a number literal: Fraction("1eN") builds 10**|N|, which
# takes seconds from N = 1e7 on, while every float's exact decimal needs at
# most 1074 (2**-1074 = 5**1074 / 10**1074) and 10**10000 takes 0.2 ms
MAX_DECIMAL_EXPONENT = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit_usage(message)


class SystemExit_usage(Exception):
    pass


def _parse_number(text: str) -> Fraction:
    """The exact Fraction of a number literal.  Text that is no rational (x,
    inf, nan) is not a number, a decimal exponent past MAX_DECIMAL_EXPONENT
    (1e-10001) is refused before its power of ten is built, and a value past
    float range (1e400) is not a finite float: each is a ValidationError."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        beyond = bool(e) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    except ValueError:  # no exponent literal: Fraction decides
        beyond = False
    if beyond:
        raise ValidationError(
            f"number '{text}' has a decimal exponent outside "
            f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"number '{text}' is not a number") from None
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"number '{text}' is not a finite float") from None
    return value


def parse_window(text: str) -> Window:
    from .indicial import Window

    include_lo = not text.startswith("(")
    include_hi = not text.endswith(")")
    body = text.strip("[]()")
    parts = body.split(":")
    if len(parts) != 2:
        raise ValidationError(f"window '{text}' must look like lo:hi")
    return Window(
        _parse_number(parts[0]),
        _parse_number(parts[1]),
        include_lo=include_lo,
        include_hi=include_hi,
    )


def _parse_int(text: str, flag: str) -> int:
    """An integer literal of ``flag``; other text is a ValidationError naming the flag."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{flag} '{text}' is not an integer") from None


def _check_batch_size(flag: str, value: int, bound: int, name: str) -> None:
    if value < 1:
        raise ValidationError(f"{flag} must be at least 1, got {value}")
    if value > bound:
        raise ValidationError(f"{flag} {value} exceeds {name} = {bound}")


def _parse_triple(text: str | None) -> tuple:
    """Exactly three comma-separated numbers, each parsed by _parse_number."""
    if text is None:
        raise ValidationError("missing a required triple argument (e.g. --metric, --a or --theta)")
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"'{text}' must hold three comma-separated numbers")
    return tuple(_parse_number(p) for p in parts)


def _table_dimension(value) -> int:
    """A d-table dimension: a JSON integer, or a float of integral value."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValidationError(f"d-table dimension {value!r} is not an integer")
    return int(value)


def _load_table_cone(path: str) -> ConeData:
    """A cone from a user d-table JSON: {"rows": [{"lambda", "dimension"}, ...],
    "coverage": [lo, hi]} (non-SL cones enter only this way)."""
    from .indicial import Window
    from .stability import ConeComponent, ConeData, DLambdaTable

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        rows = tuple(
            (_parse_number(str(row["lambda"])), _table_dimension(row["dimension"]))
            for row in data["rows"]
        )
        lo, hi = data["coverage"]
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(
            f"malformed d-table {path}: {type(exc).__name__} {exc}"
        ) from None
    table = DLambdaTable(rows, Window(_parse_number(str(lo)), _parse_number(str(hi))))
    return ConeData((ConeComponent(table),))


def _resolve_cone(name: str, cutoff: float) -> tuple[ConeData, str]:
    """A --cone or --end source: the cone it names and the provenance it prints."""
    from . import presets
    from .spectra import TorusMetric

    kind, colon, param = name.partition(":")
    if not colon and kind in presets.PRESETS:
        build, provenance = presets.PRESETS[kind]
        return build(cutoff), provenance
    if colon and kind == "torus":
        metric = TorusMetric(*_parse_triple(param))
        return presets.torus_cone(metric, cutoff), "synthetic flat-torus link (user metric)"
    if colon and kind == "table":
        return _load_table_cone(param), "user-supplied d-lambda table"
    raise ValidationError(
        f"unknown cone source '{name}' (use {', '.join(presets.PRESETS)}, "
        f"torus:<g11,g12,g22>, table:<path.json>)"
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a JSON-ready result dict
# ---------------------------------------------------------------------------

def _check_mesh_size(source: str, vertices: int) -> None:
    _check_batch_size(f"{source} vertex count", vertices, MAX_MESH_VERTICES, "MAX_MESH_VERTICES")


def _builtin_mesh(text: str):
    """icosphere:N or clifford:N, checked against MAX_MESH_VERTICES before it is built."""
    from .mesh import clifford_torus_mesh, icosphere

    kind, _, param = text.partition(":")
    # the vertex count from the parameter; None where it has too many digits
    # to be worth computing (far over the budget)
    if kind == "icosphere":
        n = _parse_int(param or "3", "--builtin")
        build, vertices = icosphere, 10 * 4**n + 2 if n <= 32 else None
    elif kind == "clifford":
        n = _parse_int(param or "64", "--builtin")
        build, vertices = clifford_torus_mesh, n * n if n <= MAX_MESH_VERTICES else None
    else:
        raise ValidationError(f"unknown builtin mesh '{text}'")
    if vertices is None:
        raise ValidationError(f"--builtin {text} exceeds MAX_MESH_VERTICES = {MAX_MESH_VERTICES}")
    _check_mesh_size(f"--builtin {text}", vertices)
    return build(n)


def _cmd_spectrum(args) -> dict:
    if args.mode == "torus":
        from .spectra import TorusMetric, torus_spectrum

        spectrum = torus_spectrum(TorusMetric(*_parse_triple(args.metric)), args.cutoff)
    elif args.mode == "sphere":
        from .spectra import sphere_spectrum

        spectrum = sphere_spectrum(args.cutoff)
    else:  # mesh
        from .mesh import load_off, mesh_spectrum

        _check_batch_size("--count", args.count, MAX_MESH_COUNT, "MAX_MESH_COUNT")
        if args.off:
            mesh = load_off(args.off)
            _check_mesh_size(f"--off {args.off}", len(mesh.vertices))
        elif args.builtin:
            mesh = _builtin_mesh(args.builtin)
        else:
            raise ValidationError("spectrum mesh needs --off PATH or --builtin NAME")
        spectrum = mesh_spectrum(mesh, args.count)
    return {
        "entries": [
            {"eigenvalue": float(ev), "multiplicity": m} for ev, m in spectrum.entries
        ],
        "cutoff": spectrum.cutoff,
        "exact": spectrum.exact,
    }


def _cmd_indicial(args) -> dict:
    from .indicial import (
        JACOBI_CONVENTION,
        SLConeSpec,
        Window,
        indicial_roots,
        jacobi_spectrum,
        morse_index,
        symmetry_check,
    )

    window = parse_window(args.window)
    cone, provenance = _resolve_cone(args.cone, args.cutoff)
    specs = [c.kernel_source for c in cone.components]
    if not all(isinstance(s, SLConeSpec) for s in specs):
        raise ValidationError(f"cone source '{args.cone}' has no link spectrum")
    tables = [indicial_roots(s, window) for s in specs]
    result: dict = {
        "provenance": provenance,
        "window": str(window),
        "roots": [{"lambda": lam, "dimension": d} for lam, d in cone.kernel_table.roots_in(window)],
        "per_component": [[r.to_dict() for r in t.roots] for t in tables],
    }
    if args.symmetry:
        # the d-symmetry check needs a window symmetric about -1: take the hull
        hull = Window(
            min(float(window.lo), -2.0 - float(window.hi)),
            max(float(window.hi), -2.0 - float(window.lo)),
        )
        result["symmetric"] = all(symmetry_check(s, hull) for s in specs)
        result["symmetry_window"] = str(hull)
    if args.morse:
        result["morse_index"] = sum(morse_index(s) for s in specs)
    if args.jacobi:
        js = [jacobi_spectrum(s, window) for s in specs]
        result["jacobi"] = {
            "convention": JACOBI_CONVENTION,
            "entries": [asdict(e) for j in js for e in j.entries],
        }
        unpaired = [u for j in js for u in j.unpaired]
        if unpaired:
            result["jacobi"]["unpaired"] = [
                {"lambda": lam, "dimension": dim, "partner": partner}
                for lam, dim, partner in unpaired
            ]
    return result


def _per_component(cone: ConeData, text: str | None, flag: str, field: str) -> ConeData:
    """Set ``field`` on every component from one value or one per component."""
    if text is None:
        return cone
    dims = [_parse_int(p, flag) for p in text.split(",")]
    if len(dims) == 1:
        dims = dims * len(cone.components)
    if len(dims) != len(cone.components):
        raise ValidationError(f"need one {flag} per component")
    return replace(
        cone,
        components=tuple(replace(c, **{field: d}) for c, d in zip(cone.components, dims)),
    )


def _cmd_stability(args) -> dict:
    from .stability import stability_report

    cone, provenance = _resolve_cone(args.cone, args.cutoff)
    cone = _per_component(cone, args.sym_dim, "--sym-dim", "symmetry_group_dim")
    cone = _per_component(cone, args.stratum_dim, "--stratum-dim", "stratum_dim")
    return {**stability_report(cone), "provenance": provenance}


def _cmd_index(args) -> dict:
    from .fredholm import EndSpec, OperatorSpec, crossed_roots, index_report, wall_crossing

    if not args.end:
        raise ValidationError("need at least one --end PRESET:RATE")
    ends, provenance = [], []
    for spec in args.end:
        name, _, rate = spec.rpartition(":")
        if not name:
            raise ValidationError(f"--end '{spec}' must look like PRESET:RATE")
        cone, text = _resolve_cone(name, args.cutoff)
        ends.append(EndSpec(cone, _parse_number(rate)))
        provenance.append(text)
    op = OperatorSpec(args.kind, tuple(ends))
    result = {**index_report(op), "provenance": provenance}
    if args.cross:
        parts = args.cross.split(":")
        if len(parts) != 2:
            raise ValidationError("--cross must look like FROM:TO")
        rate_from, rate_to = _parse_number(parts[0]), _parse_number(parts[1])
        result["wall_crossing"] = {
            "from": float(rate_from),
            "to": float(rate_to),
            "jump": wall_crossing(op, rate_from, rate_to),
            "crossed_roots": [
                {"lambda": lam, "dimension": d}
                for lam, d in crossed_roots(op, rate_from, rate_to)
            ],
        }
    return result


def _decay_report(radii: list[float], norms: list[float]) -> dict:
    """The log-log decay fit of a (radius, deviation) table, with the table."""
    from .geometry import fit_decay

    return {
        **asdict(fit_decay(radii, norms)),
        "table": [{"r": r, "deviation": d} for r, d in zip(radii, norms)],
    }


def _cmd_lawlor(args) -> dict:
    from . import geometry

    if args.mode == "angles":
        params = geometry.LawlorParams(_parse_triple(args.a))
        angles = geometry.lawlor_angles(params)
        return {
            "a": list(params.a),
            "theta": list(angles.theta),
            "sum": sum(angles.theta),
            "conformal_scale": params.conformal_scale(),
        }
    if args.mode == "solve":
        target = geometry.LawlorAngles(_parse_triple(args.theta))
        params = geometry.lawlor_solve(target, args.scale, tol=args.tol)
        return {
            "theta": list(target.theta),
            "scale": args.scale,
            "a": list(params.a),
        }
    if args.mode == "profile":
        import numpy as np

        _check_batch_size("--count", args.count, MAX_PROFILE_ROWS, "MAX_PROFILE_ROWS")
        if not math.isfinite(args.y_max - args.y_min):  # also an infinite or NaN end
            raise ValidationError(
                f"need --y-min, --y-max with a finite span; got {args.y_min}, {args.y_max}"
            )
        params = geometry.LawlorParams(_parse_triple(args.a))
        ys = np.linspace(args.y_min, args.y_max, args.count)
        rows = geometry.lawlor_profile(params, ys)
        return {"a": list(params.a), "rows": rows}
    if args.mode == "verify":
        _check_batch_size("--samples", args.samples, MAX_SAMPLES, "MAX_SAMPLES")
        params = geometry.LawlorParams(_parse_triple(args.a))
        report = geometry.verify_special_lagrangian(
            geometry.lawlor_sampler(params), args.samples, args.seed
        )
        return {"a": list(params.a), **asdict(report)}
    # decay, the last mode argparse admits
    if not 0 < args.r_min < args.r_max < math.inf:
        raise ValidationError(f"need 0 < --r-min < --r-max < inf: {args.r_min}, {args.r_max}")
    params = geometry.LawlorParams(_parse_triple(args.a))
    radii, norms = geometry.lawlor_decay_table(
        params,
        r_window=(args.r_min, args.r_max),
        subtract_leading=args.subtract,
        seed=args.seed,
    )
    return {"a": list(params.a), **_decay_report(radii, norms)}


def _cmd_hl(args) -> dict:
    from . import geometry

    if args.mode == "verify":
        _check_batch_size("--samples", args.samples, MAX_SAMPLES, "MAX_SAMPLES")
        branches = (1, 2, 3) if args.branch == 0 else (args.branch,)
        out = {}
        for b in branches:
            rep = geometry.verify_special_lagrangian(
                geometry.hl_smoothing_sampler(b, args.a), args.samples, args.seed
            )
            out[f"branch_{b}"] = {
                "max_omega": rep.max_omega,
                "max_im_omega": rep.max_im_omega,
                "max_associator": rep.max_associator,
            }
        link = geometry.verify_special_lagrangian(
            geometry.hl_link_sampler(), args.samples, args.seed
        )
        out["link"] = {"max_omega": link.max_omega}
        return out
    if args.mode == "xi-relation":
        if not (math.isfinite(args.r) and args.r > 0):
            raise ValidationError(f"--r must be a positive finite radius, got {args.r}")
        return {
            "r_probe": args.r,
            "residual": geometry.hl_xi_relation_residual(args.r, seed=args.seed, a=args.a),
            "single_branch_deviation": geometry.hl_branch_deviation_magnitude(args.r, args.a),
        }
    # decay, the last mode argparse admits
    branch = args.branch or 1
    radii, norms = geometry.hl_decay_table(branch=branch, a=args.a)
    return {"branch": branch, **_decay_report(radii, norms)}


def _cmd_g2(args) -> dict:
    import numpy as np

    from . import g2

    _check_batch_size("--tuples", args.tuples, MAX_TUPLES, "MAX_TUPLES")
    x = np.random.default_rng(args.seed).normal(size=(args.tuples, 4, 7))
    unit = x / np.linalg.norm(x, axis=-1, keepdims=True)
    u, v, w, z = np.moveaxis(unit, 1, 0)
    cr = g2.cross(u, v)
    ortho = np.maximum(np.abs((cr * u).sum(axis=-1)), np.abs((cr * v).sum(axis=-1)))
    gram_det = np.linalg.det(unit[:, :3] @ unit[:, :3].transpose(0, 2, 1))
    assoc = g2.associator(u, v, w)
    norm_defect = gram_det - (g2.phi3(u, v, w) ** 2 + (assoc * assoc).sum(axis=-1))
    psi_defect = g2.psi4(u, v, w, z) - (assoc * z).sum(axis=-1)
    return {
        "tuples": args.tuples,
        "max_g2_identity_residual": float(np.abs(g2.g2_identity_residual(u, v)).max()),
        "max_cross_orthogonality": float(ortho.max()),
        "max_associator_norm_identity": float(np.abs(norm_defect).max()),
        "max_psi_defect": float(np.abs(psi_defect).max()),
    }


def _cmd_planes(args) -> dict:
    from . import g2, geometry

    pair = geometry.transverse_plane_pair(_parse_triple(args.theta))
    recovered = geometry.jordan_angles(pair.frame_zero, pair.frame_theta)
    return {
        "theta": list(pair.theta),
        "associative": [
            g2.is_associative_frame(pair.frame_zero),
            g2.is_associative_frame(pair.frame_theta),
        ],
        "jordan_angles": [float(t) for t in recovered],
        "splitting_dimensions": [1, 3, 3],
        "normal": list(pair.normal),
    }


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_global_flags(parser, suppress: bool) -> None:
    # also attached to every subparser (with SUPPRESS defaults) so the
    # global flags may appear on either side of the subcommand
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="flat key = value config file", **kw)
    parser.add_argument(
        "--output-format",
        choices=("json", "csv"),
        **(kw or {"default": "json"}),
    )
    parser.add_argument("--seed", type=int, **(kw or {"default": 0}))


def build_parser() -> _Parser:
    parser = _Parser(prog="cone-spectra", description=__doc__)
    _add_global_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="link Laplace spectra", parents=[common])
    p.add_argument("mode", choices=("torus", "sphere", "mesh"))
    p.add_argument("--metric", help="torus metric g11,g12,g22 (fractions allowed)")
    p.add_argument("--cutoff", type=float, default=12.0)
    p.add_argument("--off", help="OFF mesh path")
    p.add_argument("--builtin", help="icosphere:N or clifford:N test meshes (bare: N = 3 or 64)")
    p.add_argument("--count", type=int, default=9)

    p = sub.add_parser("indicial", help="kernel dimensions and indicial roots", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--window", default="[-2:1]")
    p.add_argument("--cutoff", type=float, default=12.0)
    p.add_argument("--morse", action="store_true")
    p.add_argument("--jacobi", action="store_true")
    p.add_argument("--symmetry", action="store_true")

    p = sub.add_parser("stability", help="stability indices", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--sym-dim", help="dim H per component (comma list or single)")
    p.add_argument("--stratum-dim", help="dim Z per component")
    p.add_argument("--cutoff", type=float, default=12.0)

    p = sub.add_parser("index", help="Fredholm index of the weighted Fueter operator", parents=[common])
    p.add_argument("--kind", choices=("ac", "cs"), required=True)
    p.add_argument("--end", action="append", help="PRESET:RATE, repeatable")
    p.add_argument("--cross", help="FROM:TO wall crossing probe")
    p.add_argument("--cutoff", type=float, default=12.0)

    p = sub.add_parser("lawlor", help="Lawlor neck machinery", parents=[common])
    p.add_argument("mode", choices=("angles", "solve", "profile", "verify", "decay"))
    p.add_argument("--a", help="a1,a2,a3")
    p.add_argument("--theta", help="target angles t1,t2,t3")
    p.add_argument("--scale", type=float, default=1.0, help="conformal scale A")
    p.add_argument("--tol", type=float, default=1e-10, help="angle residual tolerance of solve")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--y-min", type=float, default=-5.0)
    p.add_argument("--y-max", type=float, default=5.0)
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--r-min", type=float, default=8.0)
    p.add_argument("--r-max", type=float, default=120.0)
    p.add_argument("--subtract", action="store_true")

    p = sub.add_parser("hl", help="Harvey-Lawson cone and smoothings", parents=[common])
    p.add_argument("mode", choices=("verify", "xi-relation", "decay"))
    p.add_argument("--branch", type=int, default=0, help="1|2|3, 0 = all")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--r", type=float, default=50.0)

    p = sub.add_parser("g2", help="G2 structure-constant fuzz checks", parents=[common])
    p.add_argument("mode", choices=("check",))
    p.add_argument("--tuples", type=int, default=1000)

    p = sub.add_parser("planes", help="transverse SL plane pair", parents=[common])
    p.add_argument("--theta", required=True)
    return parser


HANDLERS = {
    "spectrum": _cmd_spectrum,
    "indicial": _cmd_indicial,
    "stability": _cmd_stability,
    "index": _cmd_index,
    "lawlor": _cmd_lawlor,
    "hl": _cmd_hl,
    "g2": _cmd_g2,
    "planes": _cmd_planes,
}


def _options(parser, command: str) -> dict[str, bool]:
    """Each '--' option flag of subcommand ``command`` -> whether it takes no value."""
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    return {
        opt: action.nargs == 0
        for action in subparsers.choices[command]._actions
        for opt in action.option_strings
        if opt.startswith("--")
    }


def _config_tokens(parser, args, argv) -> list[str]:
    """The config file's entries as '--key=value' tokens for the same parser.

    Keys are the chosen subcommand's option flags; a flag that takes no value
    takes 'true' or 'false'.  Entries for flags that argv sets are dropped,
    so explicit flags win.
    """
    options = _options(parser, args.command)
    del options["--help"], options["--config"]
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            flag = tok.split("=", 1)[0]
            # argparse also accepts a unique prefix of a flag
            explicit |= {flag} if flag in options else {o for o in options if o.startswith(flag)}
    tokens: list[str] = []
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{args.config}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if flag not in options:
                raise ValidationError(f"unknown config key '{key}'")
            if flag in explicit:
                continue
            if not options[flag]:
                tokens.append(f"{flag}={value}")
            elif value.lower() == "true":
                tokens.append(flag)
            elif value.lower() != "false":
                raise ValidationError(
                    f"{args.config}:{lineno}: '{key}' takes true or false, got '{value}'"
                )
    return tokens


# a result's table field and its columns: CSV writes one row per element
CSV_COLUMNS = {
    "entries": ("eigenvalue", "multiplicity"),
    "roots": ("lambda", "dimension"),
    "rows": ("y", "theta1", "theta2", "theta3", "z1", "z2", "z3"),
    "table": ("r", "deviation"),
}


def _csv_output(command: str, result: dict) -> str:
    field = next((f for f in CSV_COLUMNS if f in result), None)
    if field is None:
        raise ValidationError(f"csv output is not defined for '{command}'")
    rows = [[row[c] for c in CSV_COLUMNS[field]] for row in result[field]]
    json.dumps(rows, allow_nan=False)  # the JSON report's ValueError on inf or nan
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS[field])
    writer.writerows(rows)
    return buf.getvalue()


def _join_flag_values(argv, parser) -> list[str]:
    """Merge '--flag value' into '--flag=value' so values like -2:1 parse;
    flags that take no value in some subcommand stay apart."""
    boolean_flags = {f for c in HANDLERS for f, no_value in _options(parser, c).items() if no_value}
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and tok not in boolean_flags
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> tuple[int, str]:
    """Parse argv, run the subcommand, return (exit code, output text)."""
    parser = build_parser()
    argv = _join_flag_values(list(argv), parser)
    try:
        args = parser.parse_args(argv)
        if args.config:
            tokens = _config_tokens(parser, args, argv)
            try:
                args = parser.parse_args(argv + tokens)
            except SystemExit_usage as exc:  # argv alone parsed: the file is at fault
                raise ValidationError(f"{args.config}: {exc}") from None
        result = HANDLERS[args.command](args)
    except SystemExit_usage as exc:
        return EXIT_USAGE, json.dumps({"error": "usage", "message": str(exc)})
    except NUMERICAL_ERRORS as exc:
        return EXIT_NUMERICAL, json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}
        )
    except (ConeSpectraError, ValueError, OSError) as exc:
        return EXIT_VALIDATION, json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}
        )
    try:
        if args.output_format == "csv":
            return EXIT_OK, _csv_output(args.command, result)
        config = {
            k: v for k, v in sorted(vars(args).items()) if k != "config" and v is not None
        }
        report = {
            "tool": "cone-spectra",
            "version": __version__,
            "command": args.command,
            "config": config,
            "result": result,
        }
        if "provenance" in result:
            report["provenance"] = result.pop("provenance")
        return EXIT_OK, json.dumps(report, sort_keys=True, allow_nan=False)
    except ValidationError as exc:  # csv output is undefined for this command
        return EXIT_VALIDATION, json.dumps({"error": "ValidationError", "message": str(exc)})
    except ValueError as exc:  # inf or nan in the result, in either format: not a number
        return EXIT_NUMERICAL, json.dumps({"error": "NonFiniteResult", "message": str(exc)})


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
