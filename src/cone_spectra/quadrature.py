"""Carlson's symmetric elliptic integral R_J, the closed form behind every
Lawlor-neck angle integral.

    R_J(x, y, z, p) = (3/2) Integral_0^inf dt / ((t + p) sqrt((t + x)(t + y)(t + z)))

is evaluated by Carlson's duplication algorithm (B. C. Carlson, Numerical
computation of real or complex elliptic integrals, Numer. Algorithms 10
(1995); DLMF 19.36.ii) in plain numpy, so importing this module loads no
scipy.  The duplication runs until the fifth-order series is exact to double
precision, so there is no tolerance to choose.
"""

from __future__ import annotations

import numpy as np

# (r/4)^(-1/6) at r = 2^-53: duplication stops once 4^-m * this * max|A_0 - arg| < |A_m|
_STOP_SCALE = (2.0**-53 / 4.0) ** (-1.0 / 6.0)


def _rc_one(e):
    """R_C(1, 1 + e) for real e > -1: arctan(sqrt e)/sqrt e, or artanh for e < 0."""
    t = np.sqrt(np.abs(e))
    safe = np.where(t > 0.0, t, 1.0)
    ratio = np.where(e > 0.0, np.arctan(safe), np.arctanh(np.where(e < 0.0, safe, 0.0))) / safe
    return np.where(t > 0.0, ratio, 1.0)


def carlson_rj(x, y, z, p):
    """R_J(x, y, z, p), vectorised over broadcast arguments.

    x >= 0 and p > 0 are real; y and z are real and non-negative, or a
    complex-conjugate pair with positive real part (then R_J is real).  At
    most one of x, y, z may be zero; an infinite argument gives 0.  Returns
    a float array.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (x, y, z, p)))
    # R_J -> 0 as any argument -> infinity: those entries run on dummy
    # arguments and are zeroed at the end
    infinite = np.any(np.isinf(args), axis=0)
    x, y, z, p = args = [np.where(infinite, 1.0, v) for v in args]
    a0 = (x + y + z + 2.0 * p) / 5.0
    delta = ((p - x) * (p - y) * (p - z)).real
    q = _STOP_SCALE * np.max(np.abs([a0 - v for v in args]), axis=0)
    a, scale, total = a0, 1.0, 0.0  # scale = 4^-m
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
    value = (scale * series / (a * np.sqrt(a))).real + 6.0 * total
    return np.where(infinite, 0.0, value)
