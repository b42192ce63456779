"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cone_spectra import g2, geometry
from cone_spectra.fredholm import (
    AC,
    CS,
    EndSpec,
    OperatorSpec,
    ac_sl_kernel_dim,
    cs_moduli_virtual_dim,
    index,
    wall_crossing,
    with_rates,
)
from cone_spectra.indicial import (
    SLConeSpec,
    Window,
    d_lambda,
    indicial_roots,
    morse_index,
    symmetry_check,
)
from cone_spectra.mesh import clifford_torus_mesh, icosphere, mesh_spectrum
from cone_spectra.presets import hl_cone, hl_cone_spec, plane_cone_spec, plane_pair_cone
from cone_spectra.spectra import LinkTopology, TorusMetric, clifford_torus_metric, torus_spectrum
from cone_spectra.stability import (
    is_rigid,
    null_torsion_bound,
    s_ind,
    s_ind_minus,
    s_ind_plus,
)

HL_SPEC = hl_cone_spec()
PLANE_SPEC = plane_cone_spec()
HL = hl_cone()
PAIR = plane_pair_cone()


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_01_hl_kernel_table():
    t0 = time.perf_counter()
    spec = hl_cone_spec()  # lattice enumeration of the derived Clifford metric
    values = {
        -1: d_lambda(spec, -1),
        0: d_lambda(spec, 0),
        1: d_lambda(spec, 1),
    }
    interior = indicial_roots(
        spec, Window(-1, 1, include_lo=False, include_hi=False)
    )
    others_vanish = all(
        r.value == 0.0 for r in interior.roots
    )
    elapsed = time.perf_counter() - t0
    ok = (
        values == {-1: 2, 0: 7, 1: 12}
        and others_vanish
        and elapsed < 1.0
    )
    _report(1, "Harvey-Lawson kernel table d(-1)=2, d(0)=7, d(1)=12",
            ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_plane_pair_table():
    d = {lam: PAIR.kernel_table.d_at(lam) for lam in (-1, 0, 1)}
    interior = PAIR.kernel_table.roots_in(Window(-1, 1, include_lo=False, include_hi=False))
    ok = d == {-1: 0, 0: 8, 1: 16} and [lam for lam, _ in interior] == [0.0]
    _report(2, "transverse plane pair d(-1)=0, d(0)=8, d(1)=16", ok, str(d))


def test_criterion_03_stability_indices():
    values = (
        s_ind(HL), s_ind_plus(HL), s_ind_minus(HL),
        s_ind(PAIR), s_ind_plus(PAIR), s_ind_minus(PAIR),
    )
    ok = all(v == Fraction(1) for v in values) and is_rigid(HL) and is_rigid(PAIR)
    _report(3, "s-ind(HL) = s-ind(plane pair) = 1, rigid, exact rationals",
            ok, "values " + ",".join(str(v) for v in values))


def test_criterion_04_symmetry_window():
    window = Window(-3, 1)
    ok = symmetry_check(HL_SPEC, window) and symmetry_check(PLANE_SPEC, window)
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        gmat = a @ a.T + 0.4 * np.eye(2)
        cone = SLConeSpec(
            torus_spectrum(TorusMetric(gmat[0, 0], gmat[0, 1], gmat[1, 1]), 8.0),
            LinkTopology(1, 2),
        )
        ok = ok and symmetry_check(cone, window)
    _report(4, "d symmetry about -1 on [-3,1]: HL, plane, 20 random tori", ok)


def test_criterion_05_fredholm_indices():
    op = OperatorSpec(AC, (EndSpec(HL, -0.5),))
    ok = index(op) == 1
    ok = ok and index(OperatorSpec(CS, op.ends)) == -1
    ok = ok and wall_crossing(op, -0.5, 0.5) == 7
    rng = np.random.default_rng(43)
    pairs = 0
    while pairs < 100:
        r = rng.uniform(-3.9, 1.9, size=3)
        if any(min(abs(x - k) for k in range(-4, 3)) < 1e-3 for x in r):
            continue
        pairs += 1
        tele = wall_crossing(op, r[0], r[1]) + wall_crossing(op, r[1], r[2])
        ok = ok and tele == wall_crossing(op, r[0], r[2])
        ok = ok and wall_crossing(op, r[0], r[2]) == index(
            with_rates(op, r[2])
        ) - index(with_rates(op, r[0]))
    _report(5, "AC index 1 / CS index -1, wall jump 7, telescoping x100", ok)


def test_criterion_06_virtual_dimensions():
    fixed = cs_moduli_virtual_dim([HL])
    family = cs_moduli_virtual_dim([HL], one_parameter=True)
    ok = fixed == -1 and family == 0
    _report(6, "virtual dimensions -1 (fixed) and 0 (one-parameter)",
            ok, f"{fixed}, {family}")


def test_criterion_07_kernel_dimension_formula():
    lawlor = ac_sl_kernel_dim(0, 2)  # b1(S^2 x R), b0(S^2 u S^2)
    hl_smoothing = ac_sl_kernel_dim(1, 1)  # b1(S^1 x C), b0(T^2)
    ok = lawlor == 1 and hl_smoothing == 1
    _report(7, "AC SL kernel dimension 1 for Lawlor neck and HL smoothings", ok)


def test_criterion_08_lawlor_angles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(50):
        a = geometry.LawlorParams(
            tuple(np.exp(rng.uniform(math.log(0.1), math.log(10), 3)))
        )
        ok = ok and abs(sum(geometry.lawlor_angles(a).theta) - math.pi) < 1e-8
    sym = geometry.lawlor_angles(geometry.LawlorParams((1.0, 1.0, 1.0)))
    ok = ok and all(abs(t - math.pi / 3) < 1e-8 for t in sym.theta)
    for seed in (1, 2, 3):
        rng2 = np.random.default_rng(seed)
        a = geometry.LawlorParams(
            tuple(np.exp(rng2.uniform(math.log(0.2), math.log(5), 3)))
        )
        angles = geometry.lawlor_angles(a)
        back = geometry.lawlor_solve(angles, a.conformal_scale())
        ok = ok and max(abs(x - y) / x for x, y in zip(a.a, back.a)) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(8, "angle sums pi (50 random), pi/3 symmetric, solve roundtrip",
            ok, f"{elapsed:.1f} s")


def test_criterion_09_calibration_residuals():
    # the A = 1 Lawlor neck, all three HL smoothings, and the HL cone link
    neck = geometry.lawlor_solve(
        geometry.LawlorAngles((math.pi / 3,) * 3), 1.0
    )
    reports = [geometry.verify_special_lagrangian(geometry.lawlor_sampler(neck), 500, 0)]
    for branch in (1, 2, 3):
        reports.append(
            geometry.verify_special_lagrangian(
                geometry.hl_smoothing_sampler(branch), 500, 0
            )
        )
    reports.append(
        geometry.verify_special_lagrangian(geometry.hl_cone_sampler(), 500, 0)
    )
    link = geometry.verify_special_lagrangian(geometry.hl_link_sampler(), 500, 0)
    worst_cal = max(max(r.max_omega, r.max_im_omega) for r in reports)
    worst_cal = max(worst_cal, link.max_omega)
    worst_assoc = max(r.max_associator for r in reports)
    ok = worst_cal < 1e-6 and worst_assoc < 1e-6
    _report(9, "calibration and associator residuals < 1e-6 on 500 samples",
            ok, f"cal {worst_cal:.1e}, assoc {worst_assoc:.1e}")


def test_criterion_10_decay_rates():
    neck = geometry.LawlorParams((2.5, 0.7, 1.3))  # generic parameters
    raw = geometry.lawlor_decay_fit(neck)
    sub = geometry.lawlor_decay_fit(neck, subtract_leading=True)
    ok = abs(raw.fitted_exponent + 2.0) < 0.1
    ok = ok and abs(sub.fitted_exponent + 4.0) < 0.3
    hl_rates = [geometry.hl_decay_fit(b).fitted_exponent for b in (1, 2, 3)]
    ok = ok and all(abs(e + 1.0) < 0.1 for e in hl_rates)
    res50 = geometry.hl_xi_relation_residual(50.0)
    res100 = geometry.hl_xi_relation_residual(100.0)
    # the sum is exactly radial, so the residual sits at rounding level;
    # the ~r^-2 shrink clause is enforced above a 1e-12 noise floor
    ok = ok and res50 < 1e-3 and res100 <= max(0.375 * res50, 1e-12)
    _report(10, "decay rates -2 / -4 / -1 and xi-sum residual < 1e-3",
            ok, f"{raw.fitted_exponent:.2f}, {sub.fitted_exponent:.2f}, "
                f"{hl_rates[0]:.2f}, xi {res50:.1e}")


def test_criterion_11_morse_index_and_null_torsion():
    morse = morse_index(HL_SPEC)
    nt = null_torsion_bound(24.0 * math.pi)
    ok = morse == 9 and morse >= 9 and abs(nt.bound - 5.0) < 1e-12 and nt.bound > 4
    _report(11, "HL Morse index 9; null-torsion bound 5 > 4 at area 24 pi",
            ok, f"morse {morse}, bound {nt.bound:g}")


def test_criterion_12_mesh_convergence():
    t0 = time.perf_counter()
    sphere_vals = mesh_spectrum(icosphere(4), 9).eigenvalues()
    target = [0.0, 2, 2, 2, 6, 6, 6, 6, 6]
    ok = abs(sphere_vals[0]) < 1e-6
    for v, t in zip(sphere_vals[1:], target[1:]):
        ok = ok and abs(v - t) / t < 0.05
    torus_target = [
        float(e) for e in torus_spectrum(clifford_torus_metric(), 2.0).eigenvalues()
    ][:7]
    torus_vals = mesh_spectrum(clifford_torus_mesh(64), 7).eigenvalues()
    ok = ok and abs(torus_vals[0]) < 1e-6
    for v, t in zip(torus_vals[1:], torus_target[1:]):
        ok = ok and abs(v - t) / t < 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(12, "mesh spectra within 5% (icosphere-4, Clifford 64x64)",
            ok, f"{elapsed:.1f} s")


def test_criterion_13_g2_fuzz():
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(1000):
        u, v, w = (x / np.linalg.norm(x) for x in rng.normal(size=(3, 7)))
        worst = max(worst, abs(g2.g2_identity_residual(u, v)))
        c = g2.cross(u, v)
        worst = max(worst, abs(float(np.dot(c, u))), abs(float(np.dot(c, v))))
        gram = np.array([u, v, w]) @ np.array([u, v, w]).T
        assoc = g2.associator(u, v, w)
        worst = max(
            worst,
            abs(float(np.linalg.det(gram)) - g2.phi3(u, v, w) ** 2 - float(np.dot(assoc, assoc))),
        )
    ok = worst < 1e-10
    _report(13, "1000-tuple G2 fuzz at 1e-10", ok, f"worst {worst:.1e}")
