"""Closed-form Lawlor integrals against independent oracles: Carlson's R_J
against mpmath, scipy and a complex-arithmetic duplication, the tail angles
against mpmath quadrature."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from cone_spectra.geometry import LawlorParams, lawlor_angles, lawlor_tails, lawlor_theta_at
from cone_spectra.quadrature import _STOP_SCALE, _rc_one, carlson_rj

PARAMS = ((1.0, 1.0, 1.0), (2.5, 0.7, 1.3), (0.1, 5.0, 3.0), (0.3, 0.4, 3.0), (100.0, 0.01, 1.0))
TAIL_YS = (0.0, 0.3, 1.0, 5.0, 40.0, 240.0)


def _rj_arguments():
    """Seeded (x, y, z, p): real and conjugate-pair y, z, some x = 0, some shifted by a large Y."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(48):
        x = 0.0 if i % 4 == 0 else rng.uniform(0.0, 5.0)
        if i % 2:
            y = complex(rng.uniform(0.01, 5.0), rng.uniform(-5.0, 5.0))
            z = y.conjugate()
        else:
            y, z = rng.uniform(0.01, 5.0, 2)
        p = rng.uniform(0.01, 5.0)
        if i % 3 == 0:
            big = 10.0 ** rng.uniform(2.0, 5.0)
            x, y, z, p = x + big, y + big, z + big, p + big
        out.append((x, y, z, p))
    return out


ARGS = _rj_arguments()


def _as_arrays(args):
    return tuple(np.array([a[j] for a in args], dtype=complex) for j in range(4))


def test_carlson_rj_matches_mpmath():
    values = carlson_rj(*_as_arrays(ARGS))
    with mpmath.workdps(30):
        for value, args in zip(values, ARGS):
            ref = float(mpmath.re(mpmath.elliprj(*(mpmath.mpmathify(v) for v in args))))
            assert abs(value - ref) <= 1e-15 * abs(ref)


def test_carlson_rj_matches_scipy():
    values = carlson_rj(*_as_arrays(ARGS))
    reference = scipy.special.elliprj(*_as_arrays(ARGS)).real
    assert np.all(np.abs(values - reference) <= 1e-14 * np.abs(reference))


def test_carlson_rj_at_huge_arguments():
    # y z and the duplication sums would overflow without the power-of-4
    # scaling; R_J has degree -3/2, so the scaled value comes back exactly
    cases = [(1.0, 1e200, 1e200, 1.0), (1.0, 1e160, 1.0, 1.0), (1e300, 2e300, 3e300, 4e300),
             (2.0, 3e150 + 1e150j, 3e150 - 1e150j, 5e100)]
    with mpmath.workdps(50):
        for args in cases:
            ref = float(mpmath.re(mpmath.elliprj(*(mpmath.mpmathify(v) for v in args))))
            assert abs(carlson_rj(*args) - ref) <= 1e-14 * abs(ref), args
    assert carlson_rj(1.0, 1e200, 1e200, 1.0) == pytest.approx(3.0e-200, rel=1e-14)
    assert carlson_rj(1.0, 1e160, 1.0, 1.0) == pytest.approx(1.5e-80, rel=1e-14)
    # scaling by a power of 4 is exact: moderate arguments give the same bits
    args = (0.3, 1.7, 2.9, 0.8)
    assert carlson_rj(*(4.0**40 * v for v in args)) == carlson_rj(*args) * 2.0**-120


def test_carlson_rj_broadcasts_and_is_real():
    value = carlson_rj(0.0, [1.0, 2.0], np.array([[2.0], [3.0]]), 4.0)
    assert value.shape == (2, 2) and value.dtype == float
    assert value[0, 0] == carlson_rj(0.0, 1.0, 2.0, 4.0)


def test_carlson_rj_outside_its_domain_is_nan_in_bounded_time():
    # two of x, y, z zero: 4^-m underflows in the duplication loop, which then stops
    start = time.perf_counter()
    with np.errstate(invalid="ignore"):
        value = carlson_rj(0.0, 0.0, 1.0, 1.0)
    assert math.isnan(value)
    assert time.perf_counter() - start < 1.0


def test_carlson_rj_vanishes_at_infinity():
    inf = math.inf
    assert np.all(carlson_rj([inf, 1.0, 1.0], [1.0, inf, 1.0], 2.0, [3.0, 3.0, inf]) == 0.0)
    # y so large that y^2 overflows: the tail is 0 and theta(y) the full angle
    params = LawlorParams((2.5, 0.7, 1.3))
    with np.errstate(over="ignore"):
        assert np.all(lawlor_tails(1e200, params) == 0.0)


@pytest.mark.parametrize("a", PARAMS)
@mpmath.workdps(30)
def test_tails_match_mpmath_quadrature(a):
    params = LawlorParams(a)
    e1, e2, e3 = (mpmath.mpf(e) for e in params.elementary_symmetric())
    tails = lawlor_tails(np.array(TAIL_YS), params)
    assert tails.shape == (len(TAIL_YS), 3)
    for k in range(3):
        ak = mpmath.mpf(a[k])

        def f(x):
            return ak / ((1 + ak * x * x) * mpmath.sqrt(e1 + e2 * x * x + e3 * x**4))

        for i, y in enumerate(TAIL_YS):
            ref = float(mpmath.quad(f, [y, y + 1, y + 10, mpmath.inf]))
            assert abs(tails[i, k] - ref) <= 1e-13 * ref


@pytest.mark.parametrize("a", PARAMS)
@mpmath.workdps(30)
def test_angles_match_mpmath_quadrature(a):
    params = LawlorParams(a)
    e1, e2, e3 = (mpmath.mpf(e) for e in params.elementary_symmetric())
    theta = lawlor_angles(params).theta
    for k in range(3):
        ak = mpmath.mpf(a[k])

        def f(x):
            return ak / ((1 + ak * x * x) * mpmath.sqrt(e1 + e2 * x * x + e3 * x**4))

        ref = 2 * mpmath.quad(f, [0, 1, 10, mpmath.inf])
        assert abs(theta[k] - float(ref)) <= 1e-15
    assert abs(sum(theta) - math.pi) < 1e-15


def test_quartic_tail():
    # far out the integrand is x^-4 / sqrt(e3) (1 - (1/a_k + e2/(2 e3)) / x^2 + ...),
    # so the tail from y is y^-3 / (3 sqrt(e3)) to relative order y^-2
    ys = np.array([1e3, 1e5, 1e7])
    for a in PARAMS:
        params = LawlorParams(a)
        _, e2, e3 = params.elementary_symmetric()
        ratio = lawlor_tails(ys, params) * 3.0 * math.sqrt(e3) * ys[:, None] ** 3
        bound = (1.0 / np.array(a) + e2 / e3) / ys[:, None] ** 2 + 1e-14
        assert np.all(np.abs(ratio - 1.0) <= bound)


def _complex_rj(x, y, z, p):
    """R_J by the same duplication on complex arrays, with every argument
    held separately: the form the real (x, s, q, p) arithmetic replaced."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (x, y, z, p)))
    x, y, z, p = args
    a0 = (x + y + z + 2.0 * p) / 5.0
    delta = ((p - x) * (p - y) * (p - z)).real
    q = _STOP_SCALE * np.max(np.abs([a0 - v for v in args]), axis=0)
    a, scale, total = a0, 1.0, 0.0
    while np.any(scale * q >= np.abs(a)):
        sx, sy, sz, sp = np.sqrt(x), np.sqrt(y), np.sqrt(z), np.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = ((sp + sx) * (sp + sy) * (sp + sz)).real
        total = total + scale * _rc_one(scale**3 * delta / (d * d)) / d
        x, y, z, p, a = ((v + lam) / 4.0 for v in (x, y, z, p, a))
        scale /= 4.0
    X, Y, Z = (scale * (a0 - v) / a for v in args[:3])
    P = -(X + Y + Z) / 2.0
    xyz = X * Y * Z
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = xyz + 2.0 * e2 * P + 4.0 * P**3
    e4 = (2.0 * xyz + e2 * P + 3.0 * P**3) * P
    e5 = xyz * P * P
    series = (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    )
    return (scale * series / (a * np.sqrt(a))).real + 6.0 * total


def _lawlor_rj_arguments(params, ys):
    """(x, y, z, p) of the tails at ys: y, z = Y - s_1, Y - s_2 from the
    roots s_1, s_2 of e3 s^2 + e2 s + e1, real or a conjugate pair."""
    e1, e2, e3 = params.elementary_symmetric()
    disc = e2 * e2 - 4.0 * e1 * e3
    if disc < 0.0:
        s1 = complex(-e2, math.sqrt(-disc)) / (2.0 * e3)
        s2 = s1.conjugate()
    else:
        q = -(e2 + math.sqrt(disc)) / 2.0
        s1, s2 = q / e3, e1 / q
    Y = np.asarray(ys, dtype=float)[:, None] ** 2
    return Y, Y - s1, Y - s2, Y + 1.0 / np.array(params.a)


def _lawlor_necks():
    """PARAMS and seeded necks with log-uniform a_k in [0.01, 100]."""
    rng = np.random.default_rng(15)
    seeded = [tuple(np.exp(rng.uniform(math.log(0.01), math.log(100.0), 3))) for _ in range(24)]
    return [LawlorParams(a) for a in PARAMS + tuple(seeded)]


def test_carlson_rj_matches_complex_oracle():
    values = carlson_rj(*_as_arrays(ARGS))
    reference = _complex_rj(*_as_arrays(ARGS))
    assert np.all(np.abs(values - reference) <= 1e-15 * reference)
    rng = np.random.default_rng(16)
    pairs = set()
    for params in _lawlor_necks():
        e1, e2, e3 = params.elementary_symmetric()
        pairs.add("real" if e2 * e2 >= 4.0 * e1 * e3 else "conjugate")
        ys = np.concatenate([[0.0, 1e-3, 100.0], rng.uniform(0.0, 100.0, 40)])
        args = _lawlor_rj_arguments(params, ys)
        reference = _complex_rj(*args)
        assert np.all(np.abs(carlson_rj(*args) - reference) <= 1e-15 * reference), params
        # the tails pass the pair to R_J as its real sum and product
        tails = lawlor_tails(ys, params) * 3.0 * math.sqrt(e3)
        assert np.all(np.abs(tails - reference) <= 1e-15 * reference), params
    assert pairs == {"real", "conjugate"}


@pytest.mark.parametrize("a", [(2.5, 0.7, 1.3), (100.0, 0.01, 1.0)])
def test_tails_are_scale_covariant(a):
    # x -> x / sqrt(lam) maps the neck of lam * a onto the neck of a, so
    # tail(y; lam a) = tail(y sqrt(lam); a), here with e3 = a1 a2 a3 from 1e-270 to 1e270
    ys = np.array(TAIL_YS)
    for lam in (1e-90, 1e-60, 1e-30, 1e30, 1e60, 1e90):
        scaled = lawlor_tails(ys, LawlorParams(tuple(lam * np.array(a))))
        reference = lawlor_tails(ys * math.sqrt(lam), LawlorParams(a))
        assert np.all(np.abs(scaled - reference) <= 2e-15 * reference), lam


def test_theta_at_memory_at_the_largest_sample():
    # lawlor verify at --samples 50000 evaluates theta at 50,000 points
    ys = np.sinh(np.linspace(-math.asinh(8.0), math.asinh(8.0), 50_000))
    tracemalloc.start()
    try:
        lawlor_theta_at(ys, LawlorParams((2.5, 0.7, 1.3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
