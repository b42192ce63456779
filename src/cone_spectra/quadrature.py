"""Carlson's symmetric elliptic integral R_J, the closed form behind every
Lawlor-neck angle integral.

    R_J(x, y, z, p) = (3/2) Integral_0^inf dt / ((t + p) sqrt((t + x)(t + y)(t + z)))

is evaluated by Carlson's duplication algorithm (B. C. Carlson, Numerical
computation of real or complex elliptic integrals, Numer. Algorithms 10
(1995); DLMF 19.36.ii) in plain numpy, so importing this module loads no
scipy.  The duplication runs until the fifth-order series is exact to double
precision, so there is no tolerance to choose.

The arithmetic is real: y and z enter only through s = y + z and q = y z,
real for a real pair and for a conjugate pair alike.  A step needs sqrt(q)
and t = sqrt(y) + sqrt(z) = sqrt(s + 2 sqrt(q)), real and positive as the
roots of a conjugate pair are conjugate; the series needs X, Y + Z and YZ.
"""

from __future__ import annotations

import numpy as np

# (r/4)^(-1/6) at r = 2^-53: duplication stops once 4^-m * this * max|A_0 - arg| < |A_m|
_STOP_SCALE = (2.0**-53 / 4.0) ** (-1.0 / 6.0)


def _rc_one(e):
    """R_C(1, 1 + e) for real e > -1: arctan(sqrt e)/sqrt e, or artanh for e < 0."""
    t = np.sqrt(np.abs(e)) + 1e-300  # at e = 0 the ratio rounds to R_C(1, 1) = 1
    positive = e > 0.0
    if positive.all():  # the usual case: skip the artanh branch
        return np.arctan(t) / t
    return np.where(positive, np.arctan(t), np.arctanh(np.where(positive, 0.0, t))) / t


def carlson_rj(x, y, z, p):
    """R_J(x, y, z, p), vectorised over broadcast arguments.

    x >= 0 and p > 0 are real; y and z are real and non-negative, or a
    complex-conjugate pair with positive real part (then R_J is real).  At most
    one of x, y, z may be zero; an infinite argument gives 0.  Returns a float array.
    Arguments are scaled by 4^-m ~ 1 / max|argument| first, so that y + z and
    y z stay in float range; R_J has degree -3/2, so the value scales by 2^-3m.
    """
    big = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.maximum(np.abs(z), np.abs(p)))
    m = np.clip(np.frexp(np.asarray(big, dtype=float))[1] // 2, -500, 500)  # inf, nan: 0
    x, y, z, p = (np.multiply(v, np.ldexp(1.0, -2 * m)) for v in (x, y, z, p))
    with np.errstate(invalid="ignore"):  # an infinite complex y or z: inf + nan j
        s, q = np.real(np.add(y, z)), np.real(np.multiply(y, z))
    return np.ldexp(carlson_rj_sq(np.real(x), s, q, np.real(p)), -3 * m)


def carlson_rj_sq(x, s, q, p):
    """R_J(x, y, z, p) from real x, p, s = y + z and q = y z (see carlson_rj)."""
    # R_J -> 0 as an argument -> inf: such entries run on x = y = z = p = 1, then read 0
    infinite = np.isinf(x) | np.isinf(s) | np.isinf(q) | np.isinf(p)
    if infinite.any():
        x, s, q, p = (np.where(infinite, d, v) for v, d in ((x, 1.0), (s, 2.0), (q, 1.0), (p, 1.0)))
    a0 = (x + s + 2.0 * p) / 5.0
    delta = (p - x) * (p * (p - s) + q)
    # |A_0 - y| and |A_0 - z| are at most |A_0 - s/2| + sqrt|s^2/4 - q|
    spread = np.abs(a0 - s / 2.0) + np.sqrt(np.abs(s * s / 4.0 - q))
    stop = _STOP_SCALE * np.maximum(np.maximum(np.abs(a0 - x), np.abs(a0 - p)), spread)
    # A_0 - x, and the sum and the product of A_0 - y and A_0 - z
    dx, ds, dq = a0 - x, 2.0 * a0 - s, a0 * (a0 - s) + q
    a, scale, total = a0, 1.0, 0.0  # scale = 4^-m
    # outside the domain (two of x, y, z zero) A_m = 4^-m A_0: an underflowed 4^-m gives nan
    while scale > 0.0 and (scale * stop >= a).any():
        sx, sq, sp = np.sqrt(x), np.sqrt(q), np.sqrt(p)
        t = np.sqrt(s + 2.0 * sq)
        lam = sx * t + sq
        d = (sp + sx) * (p + sp * t + sq)
        total = total + scale * _rc_one(scale**3 * delta / (d * d)) / d
        q = (q + lam * s + lam * lam) / 16.0
        x, s, p, a = (x + lam) / 4.0, (s + 2.0 * lam) / 4.0, (p + lam) / 4.0, (a + lam) / 4.0
        scale /= 4.0
    X, y_plus_z, yz = scale * dx / a, scale * ds / a, (scale / a) ** 2 * dq
    P = -(X + y_plus_z) / 2.0
    xyz = X * yz
    e2 = X * y_plus_z + yz - 3.0 * P * P
    e3 = xyz + 2.0 * e2 * P + 4.0 * P**3
    e4 = (2.0 * xyz + e2 * P + 3.0 * P**3) * P
    e5 = xyz * P * P
    series = (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    )
    value = scale * series / (a * np.sqrt(a)) + 6.0 * total
    return np.where(infinite, 0.0, value)
