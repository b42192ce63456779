"""Closed-form Lawlor integrals against independent oracles: Carlson's R_J
against mpmath and scipy, the tail angles against mpmath quadrature."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from cone_spectra.geometry import LawlorParams, lawlor_angles, lawlor_tails
from cone_spectra.quadrature import carlson_rj

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


def test_carlson_rj_broadcasts_and_is_real():
    value = carlson_rj(0.0, [1.0, 2.0], np.array([[2.0], [3.0]]), 4.0)
    assert value.shape == (2, 2) and value.dtype == float
    assert value[0, 0] == carlson_rj(0.0, 1.0, 2.0, 4.0)


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
