"""numeric-sweep: model ops and mesh ops, interleaved, on numeric geometry.

A cycle holds 16 model ops (4 lawlor, 8 hl, 4 g2) and 15 mesh ops, in
seeded order:

- lawlor: a seeded, generic neck; angles, the solve round trip, a profile,
  sampled calibration and the raw and subtracted decay fits.  Each neck is
  new, so the per-neck angle cache starts cold and is hot inside verify;
- hl: a seeded smoothing; calibration, the decay fit and the xi residual;
- g2: seeded tuples through the cross product, associator, phi and psi
  identities, plus a transverse plane pair and its Jordan angles;
- mesh: ``mesh_spectrum`` on icosphere 2/3/4 (read back through
  ``load_off``) and on Clifford tori 24/32/48 (162 to 2562 vertices).

The copies per cycle are chosen so that, over whole cycles, the median op
is an hl op (ranks 39-65% of a cycle) and the 90th percentile an
icosphere-4 op (ranks 84-100%), each well inside one class of op.

Checks use the pinned acceptance tolerances.  Mesh multiplicities are
compared with the analytic ones and reported, not counted as failures:
the Clifford meshes split eigenvalue 2 (multiplicity 6) as 4 + 2.
"""

from __future__ import annotations

import math
import random

G2_TUPLES = 150
LAWLOR_SAMPLES = 100
HL_SAMPLES = 500  # puts an hl op (~100 ms) between icosphere 3 and Clifford 32
PROFILE_YS = 21
# (kind, size, copies per cycle), cheapest first
MESHES = (
    ("icosphere", 2, 4),
    ("clifford", 24, 2),
    ("icosphere", 3, 2),
    ("clifford", 32, 1),
    ("clifford", 48, 1),
    ("icosphere", 4, 5),
)
MODEL_COPIES = {"g2": 4, "hl": 8, "lawlor": 4}
SPHERE_COUNT = 9  # l <= 2: 1 + 3 + 5
TORUS_COUNT = 13  # eigenvalues 0, 2, 6 with multiplicities 1, 6, 6

SUM_TOL = 1e-8
ROUND_TRIP_TOL = 1e-6
CALIBRATION_TOL = 1e-6
G2_TOL = 1e-10
XI_TOL = 1e-3
EIGEN_REL_TOL = 0.05
DECAY = {"raw": (-2.0, 0.1), "subtracted": (-4.0, 0.3), "hl": (-1.0, 0.1)}


def _generic_neck(rng: random.Random) -> tuple:
    """Three log-uniform parameters in [0.3, 3], pairwise ratio > 1.25.

    Near-symmetric necks have no clean r^-4 remainder to fit.
    """
    while True:
        a = sorted(math.exp(rng.uniform(math.log(0.3), math.log(3.0))) for _ in range(3))
        if a[1] / a[0] > 1.25 and a[2] / a[1] > 1.25:
            rng.shuffle(a)
            return tuple(a)


def _plane_angles(rng: random.Random) -> tuple:
    while True:
        t1, t2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        t3 = math.pi - t1 - t2
        if 0.2 < t3 < math.pi - 0.2:
            return (t1, t2, t3)


def make_op(rng: random.Random, kind: str, size=None) -> dict:
    seed = rng.randrange(2**31)
    if kind == "lawlor":
        return {"family": "model", "kind": kind, "a": _generic_neck(rng), "seed": seed}
    if kind == "hl":
        return {
            "family": "model",
            "kind": kind,
            "branch": rng.randint(1, 3),
            "a": math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
            "r": rng.uniform(30.0, 100.0),
            "seed": seed,
        }
    if kind == "g2":
        return {"family": "model", "kind": kind, "theta": _plane_angles(rng), "seed": seed}
    return {"family": "mesh", "kind": kind, "size": size}


def op_class(op: dict) -> str:
    return f"{op['kind']}{op.get('size') or ''}"


def cycle(rng: random.Random) -> list[dict]:
    ops = [make_op(rng, k) for k, copies in MODEL_COPIES.items() for _ in range(copies)]
    ops += [make_op(rng, k, n) for k, n, copies in MESHES for _ in range(copies)]
    rng.shuffle(ops)
    return ops


def warmup_ops(rng: random.Random) -> list[dict]:
    """One op of each family, run during set-up."""
    return [make_op(rng, "lawlor"), make_op(rng, "icosphere", 2)]


class NumericOps:
    """Runs and checks ops against an imported cone_spectra."""

    def __init__(self, work_dir):
        import numpy as np

        from cone_spectra import g2, geometry, mesh, spectra

        self.np, self.g2, self.geometry, self.mesh = np, g2, geometry, mesh
        self.paths = {}
        for _kind, size, _copies in MESHES:
            if _kind == "icosphere":
                path = work_dir / f"icosphere{size}.off"
                mesh.save_off(mesh.icosphere(size), path)
                self.paths[size] = path
        # analytic references (exact core, computed once here)
        self.sphere_ref = [(0, 1), (2, 3), (6, 5)]
        torus = spectra.torus_spectrum(spectra.clifford_torus_metric(), 6)
        self.torus_ref = [(int(ev), m) for ev, m in torus.entries]

    # -- timed parts -------------------------------------------------------

    def run(self, op: dict):
        return getattr(self, "_run_" + op["kind"])(op)

    def _run_lawlor(self, op):
        G = self.geometry
        a = G.LawlorParams(op["a"])
        angles = G.lawlor_angles(a)
        back = G.lawlor_solve(angles, a.conformal_scale())
        rows = G.lawlor_profile(a, self.np.linspace(-5.0, 5.0, PROFILE_YS))
        report = G.verify_special_lagrangian(G.lawlor_sampler(a), LAWLOR_SAMPLES, op["seed"])
        raw = G.lawlor_decay_fit(a)
        sub = G.lawlor_decay_fit(a, subtract_leading=True)
        return angles, back, rows, report, raw, sub

    def _run_hl(self, op):
        G = self.geometry
        sampler = G.hl_smoothing_sampler(op["branch"], op["a"])
        report = G.verify_special_lagrangian(sampler, HL_SAMPLES, op["seed"])
        fit = G.hl_decay_fit(op["branch"], op["a"])
        xi = G.hl_xi_relation_residual(op["r"], seed=op["seed"], a=op["a"])
        return report, fit, xi

    def _run_g2(self, op):
        np, g2 = self.np, self.g2
        rng = np.random.default_rng(op["seed"])
        worst = 0.0
        for _ in range(G2_TUPLES):
            u, v, w, z = (x / np.linalg.norm(x) for x in rng.normal(size=(4, 7)))
            worst = max(worst, abs(g2.g2_identity_residual(u, v)))
            c = g2.cross(u, v)
            worst = max(worst, abs(float(np.dot(c, u))), abs(float(np.dot(c, v))))
            gram = np.array([u, v, w]) @ np.array([u, v, w]).T
            assoc = g2.associator(u, v, w)
            lhs = float(np.linalg.det(gram))
            worst = max(worst, abs(lhs - g2.phi3(u, v, w) ** 2 - float(np.dot(assoc, assoc))))
            worst = max(worst, abs(g2.psi4(u, v, w, z) - float(np.dot(assoc, z))))
        pair = self.geometry.transverse_plane_pair(op["theta"])
        jordan = self.geometry.jordan_angles(pair.frame_zero, pair.frame_theta)
        associative = g2.is_associative_frame(pair.frame_zero) and g2.is_associative_frame(
            pair.frame_theta
        )
        return worst, jordan, associative

    def _run_icosphere(self, op):
        return self.mesh.mesh_spectrum(self.mesh.load_off(self.paths[op["size"]]), SPHERE_COUNT)

    def _run_clifford(self, op):
        return self.mesh.mesh_spectrum(self.mesh.clifford_torus_mesh(op["size"]), TORUS_COUNT)

    # -- checks ------------------------------------------------------------

    def check(self, op: dict, out) -> list[str]:
        return getattr(self, "_check_" + op["family"])(op, out)

    def _check_model(self, op, out) -> list[str]:
        bad: list[str] = []
        if op["kind"] == "lawlor":
            angles, back, rows, report, raw, sub = out
            if abs(sum(angles.theta) - math.pi) >= SUM_TOL:
                bad.append(f"angle sum {sum(angles.theta)!r}")
            if max(abs(x - y) / x for x, y in zip(op["a"], back.a)) >= ROUND_TRIP_TOL:
                bad.append(f"solve round trip {back.a} != {op['a']}")
            for k in range(3):
                theta = [row[f"theta{k + 1}"] for row in rows]
                if theta != sorted(theta) or not 0.0 <= theta[0] <= theta[-1] <= angles.theta[k]:
                    bad.append(f"profile theta{k + 1} not monotone inside [0, theta]")
            bad += _calibration(report)
            bad += _decay("raw", raw.fitted_exponent) + _decay("subtracted", sub.fitted_exponent)
        elif op["kind"] == "hl":
            report, fit, xi = out
            bad += _calibration(report) + _decay("hl", fit.fitted_exponent)
            if not xi < XI_TOL:
                bad.append(f"xi residual {xi}")
        else:
            worst, jordan, associative = out
            want = sorted(min(t, math.pi - t) for t in op["theta"])
            if not worst < G2_TOL:
                bad.append(f"g2 identity residual {worst}")
            if not associative or max(abs(x - y) for x, y in zip(jordan, want)) >= SUM_TOL:
                bad.append(f"plane pair {list(jordan)} != {want}")
        return bad

    def _check_mesh(self, op, spectrum) -> list[str]:
        want = [float(ev) for ev, m in self.reference(op) for _ in range(m)]
        got = spectrum.eigenvalues()
        if len(got) != len(want) or abs(got[0]) >= 1e-6:
            return [f"mesh spectrum {got}"]
        off = [g for g, w in zip(got[1:], want[1:]) if abs(g - w) / w >= EIGEN_REL_TOL]
        return [f"mesh eigenvalues off by >= 5%: {off}"] if off else []

    def reference(self, op: dict) -> list:
        return self.sphere_ref if op["kind"] == "icosphere" else self.torus_ref

    def multiplicity_matches(self, op: dict, spectrum) -> tuple[int, int]:
        """(analytic eigenvalues recovered as one cluster, analytic eigenvalues)."""
        return mult_matches(self.reference(op), [m for _ev, m in spectrum.entries])


def mult_matches(reference, cluster_sizes) -> tuple[int, int]:
    """Count analytic eigenvalues whose index range is exactly one mesh cluster."""
    bounds, start = set(), 0
    for size in cluster_sizes:
        bounds.add((start, start + size))
        start += size
    matched, start = 0, 0
    for _ev, mult in reference:
        matched += (start, start + mult) in bounds
        start += mult
    return matched, len(reference)


def _calibration(report) -> list[str]:
    worst = max(report.max_omega, report.max_im_omega, report.max_associator)
    return [] if worst < CALIBRATION_TOL else [f"calibration residual {worst}"]


def _decay(name: str, exponent: float) -> list[str]:
    target, tol = DECAY[name]
    return [] if abs(exponent - target) < tol else [f"{name} decay exponent {exponent}"]
