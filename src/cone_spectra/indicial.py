"""Homogeneous-kernel dimensions d_lambda and indicial roots of SL cones.

For a special Lagrangian cone with link spectrum spec(Delta) the rate-lambda
kernel decomposes into an F branch (lambda(lambda+1) an eigenvalue), an H
branch ((lambda+2)(lambda+1) an eigenvalue) and, exactly at lambda = -1, the
harmonic 1-forms of the link.  A root of an exact eigenvalue k/d (lowest
terms) is (p + s sqrt(n) / d) / 2, p in {-1, -3}, s = +-1, n = d (d + 4k);
its key is ("Q", Fraction) for a square n, else ("I", p, s, k, d).  Two
irrational roots are equal only when their keys are (s1 sqrt(n1) / d1 -
s2 sqrt(n2) / d2 in {0, +-2} forces equal radicands and signs), so one
spectrum's need no merging.  One rule, :func:`_same_rate`, decides when two
rates coincide: equal exact keys, else (float data, key "V") values within
MERGE_TOL = 1e-9.

Kernel data has one type, :class:`KernelTable`, built once per kernel source
(a cone's spectrum, a user d-table, or the union of a cone's components) over
the rates it covers; every indicial, stability and Fredholm query bisects its
one sorted rate index and checks by key only the roots within 2 MERGE_TOL of
a bound.  :func:`d_lambda` is the independent pointwise oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, takewhile
from operator import attrgetter
from typing import Iterable, Union

from .errors import CutoffExceeded
from .spectra import LinkTopology, Spectrum, _is_exact

Rate = Union[int, float, Fraction]

F_BRANCH = "F"
H_BRANCH = "H"
HARMONIC_ONE_FORM = "HARMONIC_ONE_FORM"

MERGE_TOL = 1e-9

JACOBI_CONVENTION = (
    "eigenspace(lambda^2+lambda-2) = V_rep + V_(-1-rep) at the representative "
    "rep >= -1/2"
)


@dataclass(frozen=True)
class SLConeSpec:
    """A special Lagrangian cone given by link spectrum + Betti numbers."""

    spectrum: Spectrum
    topology: LinkTopology

    def __post_init__(self):
        mult0 = self.spectrum.entries[0][1]  # a Spectrum starts at eigenvalue 0
        if mult0 != self.topology.b0:
            raise ValueError(
                f"multiplicity of eigenvalue 0 ({mult0}) must equal b0 "
                f"({self.topology.b0}): harmonic = locally constant functions"
            )

    @cached_property
    def kernel_table(self) -> KernelTable:
        """Every indicial root on the rates the spectrum determines, built once.
        The first entry is eigenvalue 0 by decree (``Spectrum`` checks it), and
        its two roots at -1 are skipped: -1 carries only harmonic 1-forms.
        Irrational roots are built directly, the rest merged."""
        exact = self.spectrum.exact
        cov_lo, cov_hi = _rate_coverage(self.spectrum.cutoff)
        parts, irrational = [], []
        for i, (delta, m) in enumerate(self.spectrum.entries):
            delta = delta if i else 0
            if exact:
                k, d = delta.numerator, delta.denominator
                r = math.isqrt(n := d * (d + 4 * k))
            dval = k / d if exact else float(delta)  # k / d is float(delta), cheaper
            root = math.sqrt(1.0 + 4.0 * dval)
            for p, branch in ((-1, F_BRANCH), (-3, H_BRANCH)):
                branches = (BranchContribution(branch, dval, m),)  # one for both signs
                for s in (+1, -1):
                    if not i and p + s == -2:
                        continue  # eigenvalue 0's two roots at -1
                    value = (p + s * root) / 2.0
                    if not cov_lo <= value <= cov_hi:
                        continue
                    if not exact:
                        parts.append((value, ("V", value), m, branches))
                    elif r * r == n:
                        parts.append((value, ("Q", Fraction(p * d + s * r, 2 * d)), m, branches))
                    else:
                        irrational.append(IndicialRoot(value, branches, m, ("I", p, s, k, d)))
        if self.topology.b1 > 0 and cov_lo <= -1.0 <= cov_hi:
            harmonic = BranchContribution(HARMONIC_ONE_FORM, 0.0, self.topology.b1)
            parts.append((-1.0, _rate_key(-1 if exact else -1.0), self.topology.b1, (harmonic,)))
        roots = sorted(irrational + list(merge_roots(parts)), key=_value)
        return KernelTable(Window(cov_lo, cov_hi), tuple(roots))


@dataclass(frozen=True)
class Window:
    """A bounded interval with explicit open/closed endpoint flags."""

    lo: Rate
    hi: Rate
    include_lo: bool = True
    include_hi: bool = True

    def __post_init__(self):
        if not float(self.lo) <= float(self.hi):
            raise ValueError("window must have lo <= hi")

    def contains(self, rate: Rate) -> bool:
        return self._holds(float(rate), _rate_key(rate))

    def _holds(self, value: float, key: tuple) -> bool:
        """Whether the rate with this value and key lies in the window (see _side)."""
        lo = _side(value, key, self.lo)
        if lo < 0 or (lo == 0 and not self.include_lo):
            return False
        hi = _side(value, key, self.hi)
        return hi < 0 or (hi == 0 and self.include_hi)

    def __str__(self):
        lo_b = "[" if self.include_lo else "("
        hi_b = "]" if self.include_hi else ")"
        return f"{lo_b}{self.lo}:{self.hi}{hi_b}"


# ---------------------------------------------------------------------------
# root identity keys
# ---------------------------------------------------------------------------

def _rate_key(rate: Rate) -> tuple:
    """The key of a rate given as a number: an int or Fraction kept as given (only
    ==, arithmetic, numerator/denominator and float read it, and
    ("Q", 1) == ("Q", Fraction(1))), else its float."""
    return ("Q", rate) if _is_exact(rate) else ("V", float(rate))


def _key_value(key) -> float:
    """The float of a key's rate (an "I" key's as its root is built)."""
    if key[0] == "V":
        return key[1]
    if key[0] == "Q":
        return float(key[1])
    _, p, s, k, d = key
    return (p + s * math.sqrt(1.0 + 4.0 * (k / d))) / 2.0


def _reflect(key: tuple, c: int) -> tuple:
    """The key of c - lambda from the key of lambda: c = -1 gives the Jacobi
    partner (the same Jacobi eigenvalue), c = -2 the d-symmetry mirror."""
    if key[0] != "I":
        return (key[0], c - key[1])
    _, p, s, k, d = key
    return ("I", 2 * c - p, -s, k, d)


def _side(value: float, key: tuple, bound: Rate) -> int:
    """The sign of rate - bound: by the rate's key when it and the bound are
    exact, else by the rate's float value, 0 within MERGE_TOL (as _same_rate)."""
    if _is_exact(bound):
        if key[0] == "Q":  # by integers: a Fraction comparison costs more
            q = key[1]
            t = q.numerator * bound.denominator - bound.numerator * q.denominator
            return (t > 0) - (t < 0)
        if key[0] == "I":
            # (p + s sqrt(n) / d) / 2 - bound has the sign of s sqrt(n) - t; n is no square
            _, p, s, k, d = key
            t = (2 * bound - p) * d
            return s if s * t <= 0 or d * (d + 4 * k) > t * t else -s
    diff = value - float(bound)
    return (diff > MERGE_TOL) - (diff < -MERGE_TOL)


@dataclass(frozen=True)
class BranchContribution:
    branch: str  # F, H or HARMONIC_ONE_FORM
    source_eigenvalue: float
    dimension: int


@dataclass(frozen=True)
class IndicialRoot:
    value: float
    branch_contributions: tuple[BranchContribution, ...]
    total_dimension: int
    key: tuple

    def to_dict(self) -> dict:
        return {
            "lambda": self.value,
            "dimension": self.total_dimension,
            "branches": [asdict(b) for b in self.branch_contributions],
        }


_value = attrgetter("value")
_dimension = attrgetter("total_dimension")


@dataclass(frozen=True)
class KernelTable:
    """d_lambda data complete on ``window``, one merged root per rate in
    increasing rate.  Queries beyond the window raise CutoffExceeded.

    ``_index``, built on first use, holds the root values and the prefix sums
    of their dimensions.  A query bisects the values; the key decides only the
    b roots within 2 MERGE_TOL of a bound or rate.  For n roots and k returned,
    ``at``, ``d_at``, ``d_sum`` and ``d_open`` cost O(log n + b), ``between``,
    ``restrict`` and ``roots_in`` O(log n + b + k), and :func:`table_symmetry`
    O(n) on a symmetric exact table, else O(n log n).  Every index formula
    (stability, Morse, Fredholm) reads ``d_minus_one``, ``d_open`` and
    ``d_at``; ``d_sum`` is the query for a given ``Window``."""

    window: Window
    roots: tuple[IndicialRoot, ...]

    @classmethod
    def from_rows(cls, coverage: Window, rows: Iterable[tuple[Rate, int]]) -> KernelTable:
        """(rate, dimension) rows as a table on ``coverage``, duplicate rates summed."""
        return cls(coverage, merge_roots((float(lam), _rate_key(lam), d, ()) for lam, d in rows))

    @classmethod
    def union(cls, tables: list[KernelTable]) -> KernelTable:
        """The tables' roots merged on the rates they all cover."""
        if len(tables) == 1:
            return tables[0]
        lo = max(t.rate_coverage[0] for t in tables)
        hi = min(t.rate_coverage[1] for t in tables)
        if lo > hi:
            raise CutoffExceeded("the components' kernel data share no covered rate")
        roots = [r for t in tables for r in t.between(lo, hi)]
        parts = [(r.value, r.key, r.total_dimension, r.branch_contributions) for r in roots]
        return cls(Window(lo, hi), merge_roots(parts))

    @cached_property
    def rate_coverage(self) -> tuple[float, float]:
        """The closed rate interval on which d_lambda data is complete."""
        return float(self.window.lo), float(self.window.hi)

    def _check_covered(self, lo: float, hi: float) -> None:
        cov_lo, cov_hi = self.rate_coverage
        if not (cov_lo <= lo and hi <= cov_hi):  # a NaN rate is not covered
            raise CutoffExceeded(
                f"kernel data only covers [{cov_lo:g}, {cov_hi:g}], asked for "
                f"[{lo:g}, {hi:g}]"
            )

    @cached_property
    def _index(self) -> tuple[list[float], list[int]]:
        values = list(map(_value, self.roots))
        return values, list(accumulate(map(_dimension, self.roots), initial=0))

    def between(self, lo: float, hi: float) -> tuple[IndicialRoot, ...]:
        """The roots with lo <= value <= hi, found by bisection."""
        return self.roots[bisect_left(self._index[0], lo) : bisect_right(self._index[0], hi)]

    def at(self, rate: Rate | tuple) -> tuple[IndicialRoot, ...]:
        """The roots at ``rate``, a root key or a number (see _rate_key), from a
        +-2 MERGE_TOL slice."""
        key = rate if isinstance(rate, tuple) else _rate_key(rate)
        value = _key_value(key)
        self._check_covered(value, value)
        near = self.between(value - 2 * MERGE_TOL, value + 2 * MERGE_TOL)
        return tuple([r for r in near if _same_rate(r.value, r.key, value, key)])

    @cached_property
    def d_minus_one(self) -> int:
        """d_(-1), read once: every index and stability sum starts from it."""
        return self.d_at(-1)

    def _bands(self, lo: float, hi: float) -> tuple[int, int, int, int]:
        """(a, i, j, b): roots[i:j] lie more than 2 MERGE_TOL inside [lo, hi],
        roots[a:i] and roots[j:b] within 2 MERGE_TOL of a bound."""
        self._check_covered(lo, hi)
        values, band = self._index[0], 2 * MERGE_TOL
        i = bisect_right(values, lo + band)
        j = max(i, bisect_left(values, hi - band))  # no inside when hi - lo < 2 bands
        return bisect_left(values, lo - band, 0, i), i, j, bisect_right(values, hi + band, j)

    def _split(self, window: Window) -> tuple[list, int, int, list]:
        """(low, i, j, high): roots[i:j] lie more than 2 MERGE_TOL inside ``window``;
        low and high, the roots within 2 MERGE_TOL of a bound that their keys put in it."""
        a, i, j, b = self._bands(float(window.lo), float(window.hi))
        roots = self.roots
        low = [r for r in roots[a:i] if window._holds(r.value, r.key)]
        return low, i, j, [r for r in roots[j:b] if window._holds(r.value, r.key)]

    def _inside(self, window: Window) -> tuple[IndicialRoot, ...]:
        low, i, j, high = self._split(window)
        return (*low, *self.roots[i:j], *high)

    def restrict(self, window: Window) -> KernelTable:
        """The roots inside ``window``, as a table complete on it."""
        return KernelTable(window, self._inside(window))

    def roots_in(self, window: Window) -> list[tuple[float, int]]:
        return [(r.value, r.total_dimension) for r in self._inside(window)]

    def d_sum(self, window: Window) -> int:
        low, i, j, high = self._split(window)
        return self._index[1][j] - self._index[1][i] + sum(map(_dimension, low + high))

    def d_open(self, lo: Rate, hi: Rate) -> int:
        """d_sum of the open window (lo, hi), lo <= hi, without building it: the
        band roots are placed by the same _side rule as Window._holds."""
        a, i, j, b = self._bands(float(lo), float(hi))
        cum, roots = self._index[1], self.roots
        total = cum[j] - cum[i]
        for r in roots[a:i] + roots[j:b]:
            if _side(r.value, r.key, lo) > 0 and _side(r.value, r.key, hi) < 0:
                total += r.total_dimension
        return total

    def d_at(self, lam: Rate | tuple) -> int:
        return sum(map(_dimension, self.at(lam)))


def _rate_coverage(cutoff: float) -> tuple[float, float]:
    """The closed rate interval whose d_lambda only needs eigenvalues <= cutoff.

    d_lambda needs the eigenvalues lambda(lambda+1) and (lambda+2)(lambda+1);
    the larger of the two grows monotonically away from lambda = -1.
    """
    root = math.sqrt(1.0 + 4.0 * cutoff)
    return ((-1.0 - root) / 2.0, (-3.0 + root) / 2.0)


def _same_rate(value: float, key: tuple, other_value: float, other_key: tuple) -> bool:
    """The one rule for when two rates coincide: equal keys when both are
    exact, else (either a float "V" key) values within MERGE_TOL."""
    if key[0] != "V" and other_key[0] != "V":
        return key == other_key
    return abs(value - other_value) <= MERGE_TOL


def _merge_rates(entries: list[tuple]) -> list[list[tuple]]:
    """Group (value, key, ...) entries by rate (see _same_rate) in one sorted pass.

    An entry joins the latest group it matches whose first value lies within
    2 MERGE_TOL below its own (exact rates may share a float), else starts one.
    Returns the entries of each rate, rates in increasing order, entries in
    input order (so the first is the earliest entry of its rate).
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    groups: list[list[int]] = []
    for i in order:
        value, key = entries[i][:2]
        home = None
        for group in reversed(groups):
            first_value, first_key = entries[group[0]][:2]
            if value - first_value > 2 * MERGE_TOL:
                break
            if _same_rate(first_value, first_key, value, key):
                home = group
                break
        if home is None:
            groups.append([i])
        else:
            home.append(i)
    return [[entries[i] for i in sorted(group)] for group in groups]


def merge_roots(parts: Iterable[tuple]) -> tuple[IndicialRoot, ...]:
    """The roots of (value, key, dimension, branches) parts, one per rate (see
    _same_rate), in increasing rate, none of dimension 0: the F/H branches of
    a float spectrum, the rational roots of an exact one, duplicate table rows
    and several components all merge here."""
    merged = []
    for group in _merge_rates(list(parts)):
        value, key = group[0][:2]
        dim = sum(g[2] for g in group)
        if dim > 0:
            branches = tuple(c for g in group for c in g[3])
            merged.append(IndicialRoot(value, branches, dim, key))
    return tuple(merged)


def d_lambda(cone: SLConeSpec, lam: Rate) -> int:
    """dim V_lambda: b1 at -1 (floats within MERGE_TOL), else mult(l(l+1)) + mult((l+2)(l+1)),
    where mult(0) is b0 by decree (floats within MERGE_TOL of 0)."""
    exact = _is_exact(lam)
    if exact:
        lam = Fraction(lam)
        if lam == -1:
            return cone.topology.b1
        targets = [lam * (lam + 1), (lam + 2) * (lam + 1)]
    else:
        lam = float(lam)
        if abs(lam + 1.0) <= MERGE_TOL:  # the tables' rule for a float rate
            return cone.topology.b1
        targets = [lam * (lam + 1.0), (lam + 2.0) * (lam + 1.0)]
    total = 0
    for t in targets:
        if t < 0:
            continue
        if float(t) > cone.spectrum.cutoff + 1e-12:
            raise CutoffExceeded(
                f"d_lambda({lam}) needs eigenvalue {float(t):g} beyond cutoff "
                f"{cone.spectrum.cutoff:g}"
            )
        zero = t == 0 if exact else abs(t) <= MERGE_TOL
        total += cone.topology.b0 if zero else cone.spectrum.multiplicity(t)
    return total


def indicial_roots(cone: SLConeSpec, window: Window) -> KernelTable:
    """All indicial roots in the window, with exact F/H merging bookkeeping."""
    return cone.kernel_table.restrict(window)


def _mirrors(key: tuple, other: tuple) -> bool:
    """Whether the exact key ``other`` is _reflect(key, -2), a "Q" pair compared
    by integers (-2 - a/b in lowest terms is (-2b - a)/b); False for "V" keys."""
    if key[0] == "Q" == other[0]:
        q, m = key[1], other[1]
        return m.denominator == q.denominator and m.numerator + q.numerator == -2 * q.denominator
    return key[0] == "I" and _reflect(key, -2) == other


def _paired(table: KernelTable) -> bool:
    """Whether root i and root n - 1 - i are exact mirrors of equal dimension
    for every i, and every mirror lies in the coverage.  A table holds one root
    per rate, each valued within 2 MERGE_TOL of its key's rate, so only roots
    that close to a coverage bound can have a mirror outside it."""
    roots, n = table.roots, len(table.roots)
    for r, m in zip(roots[: (n + 1) // 2], reversed(roots)):
        if r.total_dimension != m.total_dimension or not _mirrors(r.key, m.key):
            return False
    (cov_lo, cov_hi), band = table.rate_coverage, 2 * MERGE_TOL
    low = takewhile(lambda r: r.value <= cov_lo + band, roots)
    high = takewhile(lambda r: r.value >= cov_hi - band, reversed(roots))
    return all(cov_lo <= _key_value(r.key) <= cov_hi for r in chain(low, high))


def table_symmetry(table: KernelTable) -> bool:
    """True iff every root's dimension matches the d at its mirror -2 - lambda.
    An exact symmetric table passes by pairing root i with root n - 1 - i;
    any other table looks each mirror up in the index, matched as ``at`` does."""
    if _paired(table):
        return True
    roots, values = table.roots, table._index[0]
    keys = [_reflect(r.key, -2) for r in roots]
    for r, key, value in zip(roots, keys, map(_key_value, keys)):
        table._check_covered(value, value)  # raises outside the coverage, as d_at there would
        i = bisect_left(values, value - 2 * MERGE_TOL)
        near = roots[i : bisect_right(values, value + 2 * MERGE_TOL, i)]
        same = (m.total_dimension for m in near if _same_rate(m.value, m.key, value, key))
        if sum(same) != r.total_dimension:
            return False
    return True


def symmetry_check(cone: SLConeSpec, window: Window) -> bool:
    """Verify d_lambda = d_(-2-lambda) for every root in a window symmetric about -1."""
    mirror = -2 - window.lo  # exact when lo is
    same = _same_rate(float(window.hi), _rate_key(window.hi), float(mirror), _rate_key(mirror))
    if not same or window.include_lo != window.include_hi:
        raise ValueError("window must be symmetric about -1")
    return table_symmetry(indicial_roots(cone, window))


@dataclass(frozen=True)
class JacobiEigenvalue:
    eigenvalue: float
    multiplicity: int
    contributing_rates: tuple[float, ...]


@dataclass(frozen=True)
class JacobiSpectrum:
    entries: tuple[JacobiEigenvalue, ...]
    # (rate, dimension, partner rate) of window roots whose partner -1 - rate
    # lies outside the kernel data, so their Jacobi multiplicity is unknown
    unpaired: tuple[tuple[float, int, float], ...] = ()


def jacobi_spectrum(cone: SLConeSpec, window: Window) -> JacobiSpectrum:
    """Jacobi-operator eigenvalues lambda^2+lambda-2 over roots in the window.

    The rate pairs (lambda, -1-lambda) collide on the same eigenvalue; the
    collision is resolved exactly via root identity keys and multiplicities
    are reported at the representative rate >= -1/2 (see JACOBI_CONVENTION).
    A root whose partner lies outside the table's rate coverage goes into
    ``unpaired`` instead of ``entries``.
    """
    table = cone.kernel_table
    cov_lo, cov_hi = table.rate_coverage
    reps = []
    for r in indicial_roots(cone, window).roots:
        own = _side(r.value, r.key, Fraction(-1, 2)) >= 0
        key = r.key if own else _reflect(r.key, -1)
        reps.append((r.value if own else _key_value(key), key, r))
    entries = []
    unpaired = []
    for group in _merge_rates(reps):
        rep_val, rep = group[0][:2]
        partner = _reflect(rep, -1)
        rates = [(_key_value(partner), partner), (rep_val, rep)]
        if _same_rate(*rates[0], *rates[1]):  # rep = -1/2 is its own partner
            del rates[0]
        if not all(cov_lo <= v <= cov_hi for v, _ in rates):
            unpaired += [
                (r.value, r.total_dimension, _key_value(_reflect(r.key, -1)))
                for *_, r in group
            ]
            continue
        found = [(r.value, r.key) for *_, r in group]
        contributing = tuple(v for v, k in rates if any(_same_rate(*f, v, k) for f in found))
        multiplicity = sum(table.d_at(k) for _, k in rates)
        eigenvalue = rep_val * rep_val + rep_val - 2.0
        entries.append(JacobiEigenvalue(eigenvalue, multiplicity, contributing))
    entries.sort(key=lambda e: e.eigenvalue)
    return JacobiSpectrum(entries=tuple(entries), unpaired=tuple(sorted(unpaired)))


def morse_index(cone: SLConeSpec) -> int:
    """Morse index of the link's Jacobi operator:
    d_(-1) + 2 * sum_{-1<lambda<0} d_lambda + d_0 + sum_{0<lambda<1} d_lambda
    (needs the spectrum complete up to eigenvalue (1+2)(1+1) = 6).
    """
    table = cone.kernel_table
    return cone.topology.b1 + 2 * table.d_open(-1, 0) + table.d_at(0) + table.d_open(0, 1)
