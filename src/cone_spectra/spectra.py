"""Laplace-Beltrami spectra of cone links as (eigenvalue, multiplicity) lists.

Analytic spectra (flat tori, round spheres) carry exact integer or rational
eigenvalues (every torus metric of ints and Fractions has an exact spectrum);
numeric mesh spectra live in :mod:`cone_spectra.mesh`.  All links
are normalized to the unit sphere, so the Clifford-torus parametrization
carries its 1/sqrt(3) factor and the induced metric is (1/3)[[2,1],[1,2]].
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import NonPositiveDefinite, ValidationError

Number = int | float | Fraction

# work budget of torus_spectrum: 1e5 lattice points take about 30 ms on a 2-core host
MAX_LATTICE_POINTS = 100_000
# work budget of sphere_spectrum: the indicial roots of 1e4 degrees take about 1 s
MAX_SPHERE_DEGREE = 10_000
# float eigenvalues this close, relative to max(1, value), are one eigenvalue
RELATIVE_TOL = 1e-9

_eigenvalue = itemgetter(0)


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Spectrum:
    """Ordered (eigenvalue, multiplicity) pairs, complete for eigenvalues <= cutoff."""

    entries: tuple[tuple[Number, int], ...]
    cutoff: float
    exact: bool

    def __post_init__(self):
        prev = None
        for ev, mult in self.entries:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if prev is not None and not ev > prev:
                raise ValueError("eigenvalues must be strictly increasing")
            prev = ev
        if not self.entries:
            raise ValueError("a spectrum needs eigenvalue 0")
        first = self.entries[0][0]
        if self.exact and first != 0:
            raise ValueError("exact spectra must start at eigenvalue 0")
        if not self.exact and abs(float(first)) > 1e-6:
            raise ValueError("numeric spectra must start near eigenvalue 0")

    def eigenvalues(self) -> list[float]:
        """Eigenvalues repeated with multiplicity."""
        out: list[float] = []
        for ev, mult in self.entries:
            out.extend([float(ev)] * mult)
        return out

    def multiplicity(self, value) -> int:
        """Multiplicity at ``value`` (0 if absent or negative): exact equality
        in an exact spectrum, else the lowest eigenvalue within RELATIVE_TOL."""
        if value < 0:
            return 0
        entries = self.entries
        if self.exact and _is_exact(value):
            i = bisect_left(entries, value, key=_eigenvalue)
            return entries[i][1] if i < len(entries) and entries[i][0] == value else 0
        fv = float(value)
        t = RELATIVE_TOL * max(1.0, abs(fv))
        # start a rounding margin below fv - t; past fv, a miss means all later miss
        for i in range(bisect_left(entries, fv - 2.0 * t, key=_eigenvalue), len(entries)):
            fe = float(entries[i][0])
            if abs(fv - fe) <= t:
                return entries[i][1]
            if fe > fv:
                break
        return 0


@dataclass(frozen=True)
class LinkTopology:
    """Betti data of the link surface."""

    b0: int
    b1: int
    genus_per_component: tuple[int, ...] = ()

    def __post_init__(self):
        if self.b0 < 0 or self.b1 < 0:
            raise ValueError("Betti numbers must be nonnegative")
        if self.genus_per_component:
            if len(self.genus_per_component) != self.b0:
                raise ValueError("need one genus per component")
            if sum(2 * g for g in self.genus_per_component) != self.b1:
                raise ValueError("b1 must equal sum of 2*genus for closed oriented links")


@dataclass(frozen=True)
class TorusMetric:
    """Flat metric in angle coordinates (theta_1, theta_2) of period 2 pi."""

    g11: Number
    g12: Number
    g22: Number

    def __post_init__(self):
        det = self.g11 * self.g22 - self.g12 * self.g12
        if not (self.g11 > 0 and det > 0):
            raise NonPositiveDefinite(f"metric {self.matrix()} is not SPD")

    def matrix(self):
        return ((self.g11, self.g12), (self.g12, self.g22))

    def det(self) -> Number:
        return self.g11 * self.g22 - self.g12 * self.g12

    def inverse(self):
        """Entries of g^{-1} (exact Fractions when the metric is exact)."""
        d = self.det()
        if self.is_exact():
            d = Fraction(d)
            return (Fraction(self.g22) / d, -Fraction(self.g12) / d, Fraction(self.g11) / d)
        d = float(d)
        return (float(self.g22) / d, -float(self.g12) / d, float(self.g11) / d)

    def area(self) -> float:
        return 4.0 * math.pi**2 * math.sqrt(float(self.det()))

    def is_exact(self) -> bool:
        return _is_exact(self.g11) and _is_exact(self.g12) and _is_exact(self.g22)


def clifford_torus_metric() -> TorusMetric:
    """Induced metric of the unit-norm link (1/sqrt 3)(e^{i t1}, e^{i t2}, e^{-i(t1+t2)})."""
    third = Fraction(1, 3)
    return TorusMetric(2 * third, third, 2 * third)


def torus_spectrum(metric: TorusMetric, cutoff: float) -> Spectrum:
    """Flat-torus spectrum: eigenvalue q(m,n) = g^{ab} k_a k_b over integer (m, n).

    Enumerates the lattice inside the exact bounding box of the ellipse
    q <= cutoff, so the result is complete below the cutoff.  A rational
    inverse metric a, b, c is put over its common denominator d, so each
    point is counted on Python ints by d q = A m^2 + (B m + C n) n <= floor(d cutoff);
    each distinct count key becomes the exact eigenvalue key // d, or
    Fraction(key, d) where d does not divide it.  Float metrics are enumerated
    in floats, and eigenvalues within RELATIVE_TOL merge.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    # bounding box: max m^2 = cutoff * g11, max n^2 = cutoff * g22 (capped when infinite)
    cap = float(MAX_LATTICE_POINTS) ** 2
    m_max = math.isqrt(math.floor(min(float(cutoff) * float(metric.g11), cap))) + 1
    n_max = math.isqrt(math.floor(min(float(cutoff) * float(metric.g22), cap))) + 1
    if (2 * m_max + 1) * (2 * n_max + 1) > MAX_LATTICE_POINTS:
        raise ValidationError(
            f"cutoff {float(cutoff):g} needs more than {MAX_LATTICE_POINTS} lattice points"
        )
    a, b, c = metric.inverse()  # q(m,n) = a m^2 + 2 b m n + c n^2
    ms, ns = range(-m_max, m_max + 1), range(-n_max, n_max + 1)
    counts: dict = {}
    if metric.is_exact():
        d = math.lcm(a.denominator, b.denominator, c.denominator)
        A, B, C = int(a * d), int(2 * b * d), int(c * d)
        top = math.floor(Fraction(cutoff) * d)  # key <= top  <=>  q <= cutoff
        for m in ms:
            am, bm = A * m * m, B * m
            for n in ns:
                key = am + (bm + C * n) * n
                if key <= top:
                    counts[key] = counts.get(key, 0) + 1
        entries = tuple((Fraction(k, d) if k % d else k // d, counts[k]) for k in sorted(counts))
        return Spectrum(entries=entries, cutoff=float(cutoff), exact=True)
    cut = float(cutoff)
    for m in ms:
        for n in ns:
            q = a * m * m + 2 * b * m * n + c * n * n
            if q <= cut:
                counts[q] = counts.get(q, 0) + 1
    return Spectrum(entries=_merge_close(sorted(counts.items())), cutoff=float(cutoff), exact=False)


def _merge_close(pairs) -> tuple[tuple[float, int], ...]:
    """Sorted (value, count) pairs, each value within RELATIVE_TOL of its
    group's lowest merged into that lowest value: rounding splits no eigenvalue."""
    merged: list[list] = []
    for value, count in pairs:
        if merged and value - merged[-1][0] <= RELATIVE_TOL * max(1.0, value):
            merged[-1][1] += count
        else:
            merged.append([value, count])
    return tuple((value, count) for value, count in merged)


def sphere_spectrum(cutoff: float) -> Spectrum:
    """Round unit 2-sphere: eigenvalue l(l+1) with multiplicity 2l+1."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    if not cutoff < (MAX_SPHERE_DEGREE + 1) * (MAX_SPHERE_DEGREE + 2):
        raise ValidationError(
            f"cutoff {float(cutoff):g} needs degrees beyond {MAX_SPHERE_DEGREE}"
        )
    # l(l+1) <= cutoff  <=>  (2l+1)^2 <= 4 cutoff + 1
    top = (math.isqrt(math.floor(4 * cutoff) + 1) - 1) // 2
    entries = tuple((ell * (ell + 1), 2 * ell + 1) for ell in range(top + 1))
    return Spectrum(entries=entries, cutoff=float(cutoff), exact=True)

