"""Lawlor necks, Harvey-Lawson smoothings, plane pairs: construction checks."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from cone_spectra import g2, geometry
from cone_spectra.errors import (
    DegenerateAngles,
    NoConvergence,
)
from cone_spectra.geometry import (
    LawlorAngles,
    LawlorParams,
    hl_branch_deviation_magnitude,
    hl_cone_point,
    hl_cone_sampler,
    hl_decay_fit,
    hl_decay_table,
    hl_embed,
    hl_link_sampler,
    hl_normal_deviation,
    hl_smoothing_sampler,
    hl_xi_relation_residual,
    jordan_angles,
    lawlor_P,
    lawlor_angles,
    lawlor_decay_fit,
    lawlor_embed,
    lawlor_profile,
    lawlor_sampler,
    lawlor_solve,
    lawlor_theta_at,
    transverse_plane_pair,
    verify_special_lagrangian,
)

SYM = LawlorParams((1.0, 1.0, 1.0))
ASYM = LawlorParams((2.5, 0.7, 1.3))


def _theta_oracle(k, a, upper=np.inf):
    """Independent scipy quadrature of the angle integral in the x variable."""

    def f(x):
        prod = (1 + a.a[0] * x * x) * (1 + a.a[1] * x * x) * (1 + a.a[2] * x * x)
        p = (prod - 1) / (x * x) if x != 0 else sum(a.a)
        return a.a[k] / ((1 + a.a[k] * x * x) * math.sqrt(p))

    value, _ = scipy.integrate.quad(f, -np.inf, upper, limit=400)
    return value


# ---------------------------------------------------------------------------
# Lawlor angles and the parameter correspondence
# ---------------------------------------------------------------------------

def test_lawlor_P_values():
    assert lawlor_P(1.0, SYM) == 7.0
    assert lawlor_P(0.0, SYM) == 3.0
    assert abs(lawlor_P(100.0, SYM) / 1e8 - 1.0) < 4e-4


def test_lawlor_P_positive():
    xs = np.linspace(-30, 30, 301)
    assert np.all(lawlor_P(xs, ASYM) > 0)


def test_symmetric_angles_are_pi_thirds():
    angles = lawlor_angles(SYM)
    for t in angles.theta:
        assert abs(t - math.pi / 3) < 1e-8


def test_angle_sum_random_parameters():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = LawlorParams(tuple(np.exp(rng.uniform(math.log(0.1), math.log(10), 3))))
        assert abs(sum(lawlor_angles(a).theta) - math.pi) < 1e-8


def test_angles_against_scipy_oracle():
    angles = lawlor_angles(ASYM)
    for k in range(3):
        assert abs(angles.theta[k] - _theta_oracle(k, ASYM)) < 1e-8


def test_angle_ordering_follows_parameters():
    # larger a_k gives a strictly larger angle (a_1 -> 0 closes theta_1)
    angles = lawlor_angles(LawlorParams((4.0, 1.0, 1.0)))
    assert abs(angles.theta[1] - angles.theta[2]) < 1e-10
    assert angles.theta[0] > angles.theta[1]


def test_angle_monotonicity():
    base = lawlor_angles(ASYM).theta
    for k in range(3):
        bumped = list(ASYM.a)
        bumped[k] *= 1.05
        assert lawlor_angles(LawlorParams(tuple(bumped))).theta[k] > base[k]


def test_lawlor_solve_symmetric():
    solved = lawlor_solve(LawlorAngles((math.pi / 3,) * 3), 4 * math.pi / 3)
    assert max(abs(x - 1.0) for x in solved.a) < 1e-9


def test_lawlor_solve_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(2):
        a = LawlorParams(tuple(np.exp(rng.uniform(math.log(0.2), math.log(5), 3))))
        angles = lawlor_angles(a)
        back = lawlor_solve(angles, a.conformal_scale())
        rel = max(abs(x - y) / x for x, y in zip(a.a, back.a))
        assert rel < 1e-6


def test_lawlor_solve_respects_scale_constraint():
    solved = lawlor_solve(LawlorAngles((0.8, 1.1, math.pi - 1.9)), 1.0)
    assert abs(solved.conformal_scale() - 1.0) < 1e-12


def _count_rj_calls(monkeypatch) -> list:
    """Record one entry per R_J evaluation the geometry layer makes."""
    calls = []
    rj = geometry.carlson_rj_sq

    def counted(*args):
        calls.append(1)
        return rj(*args)

    monkeypatch.setattr(geometry, "carlson_rj_sq", counted)
    return calls


def test_lawlor_solve_honours_tol(monkeypatch):
    calls = _count_rj_calls(monkeypatch)
    target = LawlorAngles((0.9, 1.1, math.pi - 2.0))
    solved = {}
    evaluations = {}
    for tol in (1e-2, 1e-10):
        calls.clear()
        solved[tol] = lawlor_solve(target, 1.0, tol=tol)
        evaluations[tol] = len(calls)
    assert evaluations[1e-2] < evaluations[1e-10]
    theta = lawlor_angles(solved[1e-2]).theta
    assert max(abs(theta[k] - target.theta[k]) for k in range(2)) < 1e-2
    assert solved[1e-2].a != solved[1e-10].a


def _one_residual_solve(target, A, tol=1e-10, max_iter=100):
    """The damped Newton solve with one tails evaluation per residual (the
    Jacobian's stencil point by point), counting its steps and halvings.
    Returns (params, steps, halvings), or (NoConvergence, steps, halvings)."""
    kappa = 4.0 * math.pi / (3.0 * A)
    t1, t2 = target.theta[0], target.theta[1]

    def params(u):
        a1, a2 = math.exp(u[0]), math.exp(u[1])
        return LawlorParams((a1, a2, kappa * kappa / (a1 * a2)))

    def residual(u):
        theta = 2.0 * geometry.lawlor_tails(0.0, params(u))
        return np.array([theta[0] - t1, theta[1] - t2])

    u = np.log([kappa ** (2.0 / 3.0)] * 2)
    res = residual(u)
    step_h, steps, halvings = 1e-5, 0, 0
    for _ in range(max_iter):
        if float(np.max(np.abs(res))) < tol:
            return params(u), steps, halvings
        jac = np.empty((2, 2))
        for j in range(2):
            up, um = u.copy(), u.copy()
            up[j] += step_h
            um[j] -= step_h
            jac[:, j] = (residual(up) - residual(um)) / (2.0 * step_h)
        delta = np.linalg.solve(jac, -res)
        scale = 1.0
        for _ in range(30):
            res_new = residual(u + scale * delta)
            if np.linalg.norm(res_new) < np.linalg.norm(res):
                u, res = u + scale * delta, res_new
                steps += 1
                break
            scale *= 0.5
            halvings += 1
        else:
            return NoConvergence, steps, halvings
    return NoConvergence, steps, halvings


def _seeded_solve_targets():
    rng = np.random.default_rng(41)
    targets = [(LawlorAngles((0.9, 1.1, math.pi - 2.0)), 1.0)]
    # the closing angle of test_lawlor_solve_degenerate_target
    targets.append((LawlorAngles((0.02, (math.pi - 0.02) / 2, (math.pi - 0.02) / 2)), 1.0))
    for _ in range(8):
        a = LawlorParams(tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))))
        targets.append((lawlor_angles(a), a.conformal_scale()))
    return targets


@pytest.mark.parametrize("case", range(10))
def test_lawlor_solve_matches_one_residual_solve(monkeypatch, case):
    target, A = _seeded_solve_targets()[case]
    expected, steps, halvings = _one_residual_solve(target, A)
    calls = _count_rj_calls(monkeypatch)
    if expected is NoConvergence:
        with pytest.raises(NoConvergence):
            lawlor_solve(target, A)
        return
    solved = lawlor_solve(target, A)
    # one R_J call at the start and one per trial point, stencil included
    assert 0 < len(calls) <= steps + halvings + 1
    assert all(abs(x - y) <= 1e-12 * y for x, y in zip(solved.a, expected.a))


def test_lawlor_solve_degenerate_target():
    # a closing angle needs a_1 -> 0; either we converge to a tiny a_1
    # or the solver gives up explicitly
    target = LawlorAngles((0.02, (math.pi - 0.02) / 2, (math.pi - 0.02) / 2))
    try:
        solved = lawlor_solve(target, 1.0)
    except NoConvergence:
        return
    assert min(solved.a) < 0.05 * max(solved.a)


def test_angle_type_validation():
    with pytest.raises(ValueError):
        LawlorAngles((1.0, 1.0, 1.0))  # sum != pi
    with pytest.raises(DegenerateAngles):
        LawlorAngles((0.0, math.pi / 2, math.pi / 2))
    with pytest.raises(ValueError):
        LawlorParams((1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_lawlor_embed_waist():
    s = lawlor_embed(0.0, (1.0, 0.0, 0.0), SYM)
    z = g2.to_c3(s.position)
    assert abs(abs(z[0]) - 1.0) < 1e-12
    assert abs(z[1]) < 1e-12 and abs(z[2]) < 1e-12
    # theta_k(0) is half the total angle by evenness of the integrand
    theta0 = lawlor_theta_at(0.0, SYM)
    assert abs(theta0[0] - math.pi / 6) < 1e-9
    half = _theta_oracle(0, SYM, upper=0.0)
    assert abs(theta0[0] - half) < 1e-8


def test_lawlor_embed_asymptotics():
    # y -> -inf approaches Pi_0 = R^3; y -> +inf approaches Pi_theta
    s_minus = lawlor_embed(-25.0, (0.6, 0.64, 0.48), SYM)
    z = g2.to_c3(s_minus.position)
    assert np.linalg.norm(z.imag) < 1e-3
    assert np.linalg.norm(z.imag) > 0
    s_plus = lawlor_embed(25.0, (0.6, 0.64, 0.48), SYM)
    z = g2.to_c3(s_plus.position)
    rotated = np.exp(-1j * np.array(lawlor_angles(SYM).theta)) * z
    assert np.linalg.norm(rotated.imag) < 1e-3


def test_lawlor_embed_rejects_bad_sigma():
    with pytest.raises(ValueError):
        lawlor_embed(0.0, (1.0, 1.0, 0.0), SYM)


def test_sampler_keeps_draw_order():
    # per sample: a uniform y (through sinh), then a normal sigma; the
    # angles of all samples come from one call
    rng = np.random.default_rng(11)
    big = math.asinh(8.0)
    draws = []
    for _ in range(20):
        y = math.sinh(rng.uniform(-big, big))
        sigma = rng.normal(size=3)
        sigma /= np.linalg.norm(sigma)
        draws.append((y, tuple(sigma)))
    samples = lawlor_sampler(ASYM)(20, 11)
    _assert_rows_match(samples, [lawlor_embed(y, sigma, ASYM) for y, sigma in draws])


def _assert_rows_match(samples, singles):
    """Row i of the batched samples is the i-th single embedding."""
    assert samples.position.shape == (len(singles), 7)
    for i, single in enumerate(singles):
        assert np.allclose(samples.position[i], single.position, rtol=0, atol=1e-13)
        assert np.allclose(samples.frame[i], single.frame, rtol=0, atol=1e-13)
        assert np.allclose(samples.cone_point[i], single.cone_point, rtol=0, atol=1e-13)


def test_lawlor_profile_rows():
    rows = lawlor_profile(SYM, [-1.0, 0.0, 1.0])
    assert len(rows) == 3
    assert abs(rows[1]["theta1"] - math.pi / 6) < 1e-9
    assert abs(rows[1]["z1"] - 1.0) < 1e-12
    # theta_k(y) is increasing in y
    assert rows[0]["theta1"] < rows[1]["theta1"] < rows[2]["theta1"]


def test_hl_embed_point():
    s = hl_embed(1.0, 0.0, 0.0, branch=1, a=1.0)
    z = g2.to_c3(s.position)
    assert np.allclose(z, [math.sqrt(2.0), 1.0, 1.0])


def test_hl_embed_cone_limit():
    s = hl_embed(2.0, 0.7, 1.9, branch=1, a=0.0)
    z = g2.to_c3(s.position)
    assert np.allclose(np.abs(z), 2.0)


def test_hl_rescaling_law():
    # eps L^k_a = L^k_{eps^2 a} with eps = 2
    for branch in (1, 2, 3):
        small = hl_embed(1.3, 0.5, 2.1, branch, a=1.0)
        big = hl_embed(2.6, 0.5, 2.1, branch, a=4.0)
        assert np.allclose(2.0 * small.position, big.position)


def test_hl_branch_permutation():
    z1 = g2.to_c3(hl_embed(1.0, 0.4, 0.9, 1, 1.0).position)
    z2 = g2.to_c3(hl_embed(1.0, 0.4, 0.9, 2, 1.0).position)
    assert np.allclose(np.roll(z1, 1), z2)


def test_sample_cone_points():
    # HL smoothing: matched cone point agrees away from the distinguished slot
    s = hl_embed(3.0, 0.4, 0.9, 1, 1.0)
    dev = g2.to_c3(s.position - s.cone_point)
    assert abs(dev[1]) < 1e-12 and abs(dev[2]) < 1e-12
    assert abs(abs(dev[0]) - (math.sqrt(10.0) - 3.0)) < 1e-12
    # Lawlor: the foot lies on the near plane and the deviation is normal
    samp = lawlor_embed(-9.0, (0.6, 0.64, 0.48), SYM)
    foot = g2.to_c3(samp.cone_point)
    assert np.linalg.norm(foot.imag) < 1e-14
    dev = g2.to_c3(samp.position - samp.cone_point)
    assert np.linalg.norm(dev.real) < 1e-14
    samp = lawlor_embed(9.0, (0.6, 0.64, 0.48), SYM)
    phases = np.exp(-1j * np.array(lawlor_angles(SYM).theta))
    assert np.linalg.norm((phases * g2.to_c3(samp.cone_point)).imag) < 1e-12


# ---------------------------------------------------------------------------
# calibration verification
# ---------------------------------------------------------------------------

def test_verify_lawlor():
    report = verify_special_lagrangian(lawlor_sampler(SYM), 200, 5)
    assert report.max_omega < 1e-6
    assert report.max_im_omega < 1e-6
    assert report.max_associator < 1e-6


def test_verify_hl_smoothings():
    for branch in (1, 2, 3):
        report = verify_special_lagrangian(hl_smoothing_sampler(branch), 200, 5)
        assert max(report.max_omega, report.max_im_omega) < 1e-6
        assert report.max_associator < 1e-6


def test_verify_hl_cone_and_link():
    cone = verify_special_lagrangian(hl_cone_sampler(), 200, 5)
    assert max(cone.max_omega, cone.max_im_omega) < 1e-6
    link = verify_special_lagrangian(hl_link_sampler(), 200, 5)
    assert link.max_omega < 1e-10


def test_verify_detects_noncalibrated_surface():
    def bad_sampler(n, seed):
        samples = hl_smoothing_sampler(1)(n, seed)
        frame = samples.frame.copy()
        # tilt one tangent toward J of another: breaks the Lagrangian
        # condition while staying inside C^3
        frame[:, 0] += 0.05 * g2.complex_structure(frame[:, 1])
        return dataclasses.replace(samples, frame=frame)

    report = verify_special_lagrangian(bad_sampler, 50, 5)
    assert max(report.max_omega, report.max_im_omega) > 1e-4


def test_verify_detects_e1_tilt_via_associator():
    # a tilt along e_1 leaves the C^3 projection special Lagrangian, so the
    # omega / Im Omega residuals stay small; the associator residual sees it
    def tilted_sampler(n, seed):
        samples = hl_smoothing_sampler(1)(n, seed)
        frame = samples.frame.copy()
        frame[:, 0] += 0.05 * g2.E1
        return dataclasses.replace(samples, frame=frame)

    report = verify_special_lagrangian(tilted_sampler, 50, 5)
    assert report.max_associator > 1e-4


def _verify_per_sample(sampler, n_samples, seed):
    """The per-sample loop verify_special_lagrangian replaced (the reference)."""
    frames = sampler(n_samples, seed).frame
    phase = None
    max_omega = max_im = max_assoc = 0.0
    for frame in frames:
        f = g2.orthonormalize(frame)
        max_omega = max(max_omega, g2.lagrangian_residual(f))
        if len(f) == 3:
            vol = g2.holomorphic_volume(f[0], f[1], f[2])
            if phase is None:
                phase = -math.atan2(vol.imag, vol.real)
            rotated = vol * complex(math.cos(phase), math.sin(phase))
            max_im = max(max_im, abs(rotated.imag))
            max_assoc = max(
                max_assoc, float(np.linalg.norm(g2.associator(f[0], f[1], f[2])))
            )
    return max_omega, max_im, max_assoc, 0.0 if phase is None else phase, len(frames)


def _tilted_sampler(n, seed):
    # residuals of order 0.01 that differ from sample to sample
    samples = hl_smoothing_sampler(1)(n, seed)
    frame = samples.frame.copy()
    tilt = 0.05 * np.arange(n)[:, None] / n
    frame[:, 0] += tilt * (g2.complex_structure(frame[:, 1]) + g2.E1)
    return dataclasses.replace(samples, frame=frame)


SAMPLERS = {
    "lawlor": lambda: lawlor_sampler(ASYM),
    "hl-smoothing": lambda: hl_smoothing_sampler(2, 0.5),
    "hl-cone": hl_cone_sampler,
    "hl-link": hl_link_sampler,
    "hl-tilted": lambda: _tilted_sampler,
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_batched_verify_matches_per_sample_loop(name, seed):
    sampler = SAMPLERS[name]()
    report = verify_special_lagrangian(sampler, 200, seed)
    max_omega, max_im, max_assoc, phase, n = _verify_per_sample(sampler, 200, seed)
    assert report.n_samples == n == 200
    assert abs(report.max_omega - max_omega) <= 1e-14
    assert abs(report.max_im_omega - max_im) <= 1e-14
    assert abs(report.max_associator - max_assoc) <= 1e-14
    assert abs(math.remainder(report.phase - phase, 2.0 * math.pi)) <= 1e-14


def test_hl_samplers_keep_draw_order():
    # the per-sample draw loops: a log-uniform radius, then two angles
    rng = np.random.default_rng(11)
    lo, hi = math.log(0.05), math.log(20.0)
    draws = []
    for _ in range(30):
        r = math.exp(rng.uniform(lo, hi))
        draws.append((r, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)))
    samples = hl_smoothing_sampler(3, 0.5)(30, 11)
    _assert_rows_match(samples, [hl_embed(r, t1, t2, 3, 0.5) for r, t1, t2 in draws])

    rng = np.random.default_rng(12)
    lo, hi = math.log(0.5), math.log(2.0)
    draws = []
    for _ in range(30):
        r = math.exp(rng.uniform(lo, hi))
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        draws.append((r, a1, a2))
    samples = hl_cone_sampler()(30, 12)
    assert samples.cone_point is None and samples.frame.shape == (30, 3, 7)
    for position, (r, a1, a2) in zip(samples.position, draws):
        q = hl_cone_point(r / math.sqrt(3.0), a1, a2)
        assert np.allclose(g2.to_c3(position), q, rtol=0, atol=1e-15)
        assert np.linalg.norm(position) == pytest.approx(r, abs=1e-15)

    rng = np.random.default_rng(13)
    draws = [rng.uniform(0.0, 2.0 * math.pi, size=2) for _ in range(30)]
    samples = hl_link_sampler()(30, 13)
    assert samples.cone_point is None and samples.frame.shape == (30, 2, 7)
    for position, (a1, a2) in zip(samples.position, draws):
        q = hl_cone_point(1.0 / math.sqrt(3.0), a1, a2)
        assert np.allclose(g2.to_c3(position), q, rtol=0, atol=1e-15)
        assert np.linalg.norm(position) == pytest.approx(1.0, abs=1e-15)


def test_verify_orthonormalizes_once_per_frame_rank(monkeypatch):
    # one Gram-Schmidt pass per frame rank, whatever the number of samples
    calls = []
    orthonormalize = g2.orthonormalize

    def counted(vectors, *args, **kwargs):
        calls.append(np.shape(vectors))
        return orthonormalize(vectors, *args, **kwargs)

    monkeypatch.setattr(g2, "orthonormalize", counted)
    for n in (50, 500):
        calls.clear()
        verify_special_lagrangian(hl_smoothing_sampler(1), n, 0)
        assert calls == [(n, 3, 7)]
        calls.clear()
        verify_special_lagrangian(hl_link_sampler(), n, 0)
        assert calls == [(n, 2, 7)]


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------

def test_lawlor_decay_rate():
    fit = lawlor_decay_fit(ASYM)
    assert abs(fit.fitted_exponent + 2.0) < 0.1


def test_lawlor_decay_rate_after_subtraction():
    fit = lawlor_decay_fit(ASYM, subtract_leading=True)
    assert abs(fit.fitted_exponent + 4.0) < 0.3


def _symmetric_remainder_slope_mpmath() -> float:
    """Log-log slope of lawlor_decay_table(SYM, subtract_leading=True), with
    every step after the seeded direction taken at 40 digits by mpmath."""
    rng = np.random.default_rng(0)
    sigma = rng.normal(size=3)
    sigma /= np.linalg.norm(sigma)
    with mpmath.workdps(40):
        # a = (1, 1, 1): P(x) = 3 + 3 x^2 + x^4 and the three tails coincide
        def tail(r):
            f = lambda x: 1 / ((1 + x * x) * mpmath.sqrt(3 + 3 * x * x + x**4))
            return mpmath.quad(f, [r, r + 1, r + 10, mpmath.inf])

        def state(r):
            r = mpmath.mpf(r)
            rho, phase = mpmath.sqrt(1 + r * r), tail(r)
            x = [mpmath.cos(phase) * rho * mpmath.mpf(s) for s in sigma]
            w = [mpmath.sin(phase) * rho * mpmath.mpf(s) for s in sigma]
            norm = mpmath.sqrt(sum(v * v for v in x))
            return w, norm, [v / norm**3 for v in x]

        w, _, model = state(240)
        coeff = sum(p * q for p, q in zip(w, model)) / sum(q * q for q in model)
        radii, norms = [], []
        for r in np.geomspace(8.0, 120.0, 12):
            w, norm, model = state(float(r))
            rem = [p - coeff * q for p, q in zip(w, model)]
            radii.append(float(norm))
            norms.append(float(mpmath.sqrt(sum(v * v for v in rem))))
    return float(np.polyfit(np.log(radii), np.log(norms), 1)[0])


def test_symmetric_subtraction_degenerates():
    # Im(z1 z2 z3) is a first integral: the r^-4 term vanishes too, and the
    # subtracted symmetric remainder falls off far faster than r^-4
    fit = lawlor_decay_fit(SYM, subtract_leading=True)
    slope = _symmetric_remainder_slope_mpmath()
    assert slope < -6.0
    assert abs(fit.fitted_exponent - slope) < 0.1


def test_decay_window_tightens_outward():
    near = lawlor_decay_fit(ASYM, r_window=(3.0, 30.0))
    far = lawlor_decay_fit(ASYM, r_window=(30.0, 300.0))
    assert abs(far.fitted_exponent + 2.0) < abs(near.fitted_exponent + 2.0)


def test_hl_decay_rate():
    for branch in (1, 2, 3):
        fit = hl_decay_fit(branch)
        assert abs(fit.fitted_exponent + 1.0) < 0.1


def test_hl_deviation_is_normal_and_small():
    dev = hl_normal_deviation(1, 50.0, 0.3, 1.1)
    mag = math.sqrt(float(np.real(np.vdot(dev, dev))))
    # normal part of the (sqrt(r^2+1) - r) e_1-deviation: sqrt(2/3) / (2r)
    assert abs(mag - math.sqrt(2.0 / 3.0) / 100.0) < 1e-5


def _hl_matched_branch_point(branch, r, alpha1, alpha2, a):
    """Branch point lying over the cone parameters (alpha1, alpha2), from the
    embedding: the branch's own torus angles are the cyclic shift
    (alpha_k, alpha_{k+1})."""
    alphas = (alpha1, alpha2, -alpha1 - alpha2)
    w, _ = geometry._hl_raw(r, alphas[branch - 1], alphas[branch % 3], a)
    return np.roll(w, branch - 1, axis=-1)


def _normal_deviation_per_point(branch, r, a1, a2, a):
    """hl_normal_deviation at one point, from the branch point minus the cone
    point, projecting out one tangent at a time."""
    dev = _hl_matched_branch_point(branch, r, a1, a2, a) - hl_cone_point(r, a1, a2)
    for q in geometry._hl_cone_tangent_frame(a1, a2):
        dev = dev - np.real(np.vdot(q, dev)) * q
    return dev


@pytest.mark.parametrize("branch, a", [(1, 1.0), (2, 0.5), (3, 2.0)])
def test_hl_deviation_arrays_match_per_point_loop(branch, a):
    # the per-point oracle subtracts the cone point from the branch point, so
    # it carries the rounding of sqrt(r^2 + a): up to an ulp of r
    r = np.geomspace(1.0, 100.0, 7)
    a1, a2 = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, size=(2, 7))
    devs = hl_normal_deviation(branch, r, a1, a2, a)
    assert devs.shape == (7, 3)
    for dev, point in zip(devs, zip(r, a1, a2)):
        oracle = _normal_deviation_per_point(branch, *point, a)
        assert np.abs(dev - oracle).max() <= 1e-14 + math.ulp(point[0])

    radii, norms = hl_decay_table(branch, a, r_window=(5.0, 300.0), n_radii=9)
    assert radii == np.geomspace(5.0, 300.0, 9).tolist()
    for r, norm in zip(radii, norms):
        dev = _normal_deviation_per_point(branch, r, 0.7, 1.3, a)
        assert abs(norm - np.linalg.norm(dev)) <= 1e-14 + math.ulp(r)

    for r in (2.0, 50.0):
        # one size=2 draw per point, as the loop took them; the exact residual
        # is 0, so the loop's is its rounding, and the closed form's no larger
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(6):
            a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            total = sum(_normal_deviation_per_point(k, r, a1, a2, a) for k in (1, 2, 3))
            worst = max(worst, float(np.linalg.norm(total)))
        assert hl_xi_relation_residual(r, seed=4, a=a) <= worst + 1e-14


def test_hl_xi_relation():
    res50 = hl_xi_relation_residual(50.0)
    assert res50 < 1e-3
    res100 = hl_xi_relation_residual(100.0)
    assert res100 <= max(0.375 * res50, 1e-12)  # ~r^-2, with a rounding floor
    assert abs(hl_branch_deviation_magnitude(50.0) - 1.0 / 100.0) < 2e-4


@pytest.mark.parametrize("a", [1.0, 0.25, 3.0])
def test_hl_deviations_match_mpmath(a):
    # 50-digit oracle of sqrt(r^2 + a) - r, the deviation in coordinate k, and
    # of its normal part sqrt(2/3) of it; the closed form keeps 1e-14 relative
    # out to r = 1e12, where the difference of floats had no digit left
    mpmath.mp.dps = 50
    for r in np.geomspace(1.0, 1e12, 25):
        want = mpmath.sqrt(mpmath.mpf(r) ** 2 + a) - r
        got = hl_branch_deviation_magnitude(float(r), a)
        assert abs(got - want) <= 1e-14 * want, r
        dev = hl_normal_deviation(2, r, 0.4, 2.1, a)
        normal = float(mpmath.sqrt(mpmath.mpf(2) / 3) * want)
        assert abs(np.linalg.norm(dev) - normal) <= 1e-14 * normal, r


def test_hl_full_deviation_sums_to_radial():
    # the unprojected deviations sum to a multiple of the cone direction
    r, a1, a2 = 30.0, 0.9, 2.2
    q = hl_cone_point(r, a1, a2)
    total = sum(
        _hl_matched_branch_point(b, r, a1, a2, 1.0) - q for b in (1, 2, 3)
    )
    radial = q / np.linalg.norm(q)
    tangential = total - np.real(np.vdot(radial, total)) * radial
    assert np.linalg.norm(tangential) < 1e-12


# ---------------------------------------------------------------------------
# transverse planes
# ---------------------------------------------------------------------------

def test_plane_pair_symmetric():
    pair = transverse_plane_pair((math.pi / 3,) * 3)
    assert g2.is_associative_frame(pair.frame_zero)
    assert g2.is_associative_frame(pair.frame_theta)
    assert np.allclose(pair.normal, g2.E1)
    stacked = np.vstack([pair.frame_zero, pair.frame_theta])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 6
    assert all(abs(np.dot(pair.normal, v)) < 1e-12 for v in stacked)


def test_plane_pair_degenerate():
    with pytest.raises(DegenerateAngles):
        transverse_plane_pair((0.0, math.pi / 2, math.pi / 2))
    with pytest.raises(ValueError):
        transverse_plane_pair((0.5, 0.5, 0.5))


def test_jordan_angle_recovery():
    theta = (0.9, 1.1, math.pi - 2.0)  # all acute: recoverable directly
    pair = transverse_plane_pair(theta)
    recovered = jordan_angles(pair.frame_zero, pair.frame_theta)
    assert np.allclose(recovered, sorted(theta), atol=1e-10)
