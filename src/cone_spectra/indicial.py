"""Homogeneous-kernel dimensions d_lambda and indicial roots of SL cones.

For a special Lagrangian cone with link spectrum spec(Delta) the rate-lambda
kernel decomposes into an F branch (lambda(lambda+1) an eigenvalue), an H
branch ((lambda+2)(lambda+1) an eigenvalue) and, exactly at lambda = -1, the
harmonic 1-forms of the link.  Every root coming from an integer eigenvalue
delta has the exact form (p + s * sqrt(1 + 4 delta)) / 2 with p in {-1, -3},
so cross-branch merging is decided by exact integer square-root tests.  One
rule, :func:`_same_rate`, decides when two rates coincide: equal exact keys,
else (a float spectrum or rate) values within MERGE_TOL = 1e-9.

Kernel data has one type, :class:`KernelTable`, built once per kernel source
(a cone's spectrum, a user d-table, or the union of a cone's components) over
the rates it covers; every indicial, stability and Fredholm query is a slice
of it.  :func:`d_lambda` is the independent pointwise oracle.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    label: str = ""

    def __post_init__(self):
        ev0, mult0 = self.spectrum.entries[0]
        if abs(float(ev0)) > 1e-6:
            raise ValueError("link spectrum must contain eigenvalue 0")
        if mult0 != self.topology.b0:
            raise ValueError(
                f"multiplicity of eigenvalue 0 ({mult0}) must equal b0 "
                f"({self.topology.b0}): harmonic = locally constant functions"
            )

    def multiplicity(self, value) -> int:
        """Spectrum multiplicity; mult(0) is b0 from topology by decree."""
        if _is_exact(value):
            if value == 0:
                return self.topology.b0
        elif abs(float(value)) <= 1e-9:
            return self.topology.b0
        return self.spectrum.multiplicity(value)

    @cached_property
    def kernel_table(self) -> KernelTable:
        """Every indicial root on the rates the spectrum determines, built once.
        The first entry is eigenvalue 0 by decree (as in ``__post_init__``), and
        its two roots at -1 are skipped: -1 carries only harmonic 1-forms."""
        exact = self.spectrum.exact
        cov_lo, cov_hi = _rate_coverage(self.spectrum.cutoff)
        parts = []
        for i, (delta, m) in enumerate(self.spectrum.entries):
            delta = delta if i else 0
            dval = float(delta)
            root = math.sqrt(1.0 + 4.0 * dval)
            for p, branch in ((-1, F_BRANCH), (-3, H_BRANCH)):
                for s in (+1, -1):
                    if not i and p + s == -2:
                        continue  # eigenvalue 0's two roots at -1
                    key = _root_key(p, s, delta) if exact else ("V", (p + s * root) / 2.0)
                    if cov_lo <= _key_value(key) <= cov_hi:
                        parts.append((key, m, (BranchContribution(branch, dval, m),)))
        if self.topology.b1 > 0 and cov_lo <= -1.0 <= cov_hi:
            harmonic = BranchContribution(HARMONIC_ONE_FORM, 0.0, self.topology.b1)
            parts.append((_rate_key(-1 if exact else -1.0), self.topology.b1, (harmonic,)))
        return KernelTable(Window(cov_lo, cov_hi), merge_roots(parts))


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

    def contains(self, value: float, exact: Fraction | None = None) -> bool:
        for bound, include, cmp_open in (
            (self.lo, self.include_lo, 1),
            (self.hi, self.include_hi, -1),
        ):
            if exact is not None and _is_exact(bound):
                diff = exact - bound
            else:
                diff = value - float(bound)
            if diff == 0:
                if not include:
                    return False
            elif (1 if diff > 0 else -1) != cmp_open:
                return False
        return True

    def __str__(self):
        lo_b = "[" if self.include_lo else "("
        hi_b = "]" if self.include_hi else ")"
        return f"{lo_b}{self.lo}:{self.hi}{hi_b}"


# ---------------------------------------------------------------------------
# root identity keys
# ---------------------------------------------------------------------------

def _root_key(p: int, s: int, delta) -> tuple:
    """Exact identity of the root (p + s*sqrt(1+4*delta))/2 for integer delta."""
    disc = 1 + 4 * int(delta)
    r = math.isqrt(disc)
    if r * r == disc:
        return ("Q", Fraction(p + s * r, 2))
    return ("I", p, s, disc)


def _rate_key(rate: Rate) -> tuple:
    """The key of a rate given as a number: exact for an int or Fraction."""
    return ("Q", Fraction(rate)) if _is_exact(rate) else ("V", float(rate))


def _key_value(key) -> float:
    if key[0] == "V":
        return key[1]
    if key[0] == "Q":
        return float(key[1])
    _, p, s, disc = key
    return (p + s * math.sqrt(disc)) / 2.0


def _key_jacobi_partner(key) -> tuple:
    """Reflection lambda -> -1 - lambda (same Jacobi eigenvalue)."""
    if key[0] != "I":
        return (key[0], -1 - key[1])
    _, p, s, disc = key
    return ("I", -2 - p, -s, disc)


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
    exact: Fraction | None = None
    key: tuple = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "lambda": self.value,
            "dimension": self.total_dimension,
            "branches": [
                {
                    "branch": b.branch,
                    "source_eigenvalue": b.source_eigenvalue,
                    "dimension": b.dimension,
                }
                for b in self.branch_contributions
            ],
        }


_value = attrgetter("value")


@dataclass(frozen=True)
class KernelTable:
    """d_lambda data complete on ``window``, one merged root per rate in
    increasing rate.  Queries beyond the window raise CutoffExceeded."""

    window: Window
    roots: tuple[IndicialRoot, ...]

    @classmethod
    def from_rows(cls, coverage: Window, rows: Iterable[tuple[Rate, int]]) -> KernelTable:
        """(rate, dimension) rows as a table on ``coverage``, duplicate rates summed."""
        return cls(coverage, merge_roots((_rate_key(lam), d, ()) for lam, d in rows))

    @classmethod
    def union(cls, tables: list[KernelTable]) -> KernelTable:
        """The tables' roots merged on the rates they all cover."""
        if len(tables) == 1:
            return tables[0]
        lo = max(t.rate_coverage()[0] for t in tables)
        hi = min(t.rate_coverage()[1] for t in tables)
        if lo > hi:
            raise CutoffExceeded("the components' kernel data share no covered rate")
        roots = [r for t in tables for r in t.between(lo, hi)]
        parts = [(r.key, r.total_dimension, r.branch_contributions) for r in roots]
        return cls(Window(lo, hi), merge_roots(parts))

    @cached_property
    def _coverage(self) -> tuple[float, float]:
        return float(self.window.lo), float(self.window.hi)

    def rate_coverage(self) -> tuple[float, float]:
        """The closed rate interval on which d_lambda data is complete."""
        return self._coverage

    def _check_covered(self, lo: float, hi: float) -> None:
        cov_lo, cov_hi = self._coverage
        if not (cov_lo <= lo and hi <= cov_hi):  # a NaN rate is not covered
            raise CutoffExceeded(
                f"kernel data only covers [{cov_lo:g}, {cov_hi:g}], asked for "
                f"[{lo:g}, {hi:g}]"
            )

    def between(self, lo: float, hi: float) -> tuple[IndicialRoot, ...]:
        """The roots with lo <= value <= hi, found by bisection."""
        roots = self.roots
        return roots[bisect_left(roots, lo, key=_value) : bisect_right(roots, hi, key=_value)]

    def at(self, rate: Rate) -> tuple[IndicialRoot, ...]:
        """The roots at ``rate`` (see _same_rate), from a +-2 MERGE_TOL slice
        so that rounding of the slice bounds drops none."""
        key = _rate_key(rate)
        value = _key_value(key)
        self._check_covered(value, value)
        near = self.between(value - 2 * MERGE_TOL, value + 2 * MERGE_TOL)
        return tuple(r for r in near if _same_rate(r.value, r.key, value, key))

    def _inside(self, window: Window):
        lo, hi = float(window.lo), float(window.hi)
        self._check_covered(lo, hi)
        roots = self.between(lo, hi)
        # only a root on a bound's float value can lie on either side of it
        return (r for r in roots if lo < r.value < hi or window.contains(r.value, r.exact))

    def restrict(self, window: Window) -> KernelTable:
        """The roots inside ``window``, as a table complete on it."""
        return KernelTable(window, tuple(self._inside(window)))

    def roots_in(self, window: Window) -> list[tuple[float, int]]:
        return [(r.value, r.total_dimension) for r in self._inside(window)]

    def d_sum(self, window: Window) -> int:
        return sum(r.total_dimension for r in self._inside(window))

    def d_at(self, lam: Rate) -> int:
        return sum(r.total_dimension for r in self.at(lam))

    def total_dimension(self) -> int:
        return sum(r.total_dimension for r in self.roots)

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.roots])


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

    Returns the entries of each rate, rates in increasing order, entries in
    input order (so the first is the earliest entry of its rate).
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    groups: list[list[int]] = []
    for i in order:
        if groups and _same_rate(*entries[groups[-1][0]][:2], *entries[i][:2]):
            groups[-1].append(i)
        else:
            groups.append([i])
    return [[entries[i] for i in sorted(group)] for group in groups]


def merge_roots(parts: Iterable[tuple]) -> tuple[IndicialRoot, ...]:
    """The roots of (key, dimension, branches) parts, one per rate (see
    _same_rate), in increasing rate, none of dimension 0: the F/H branches of
    a spectrum, duplicate table rows and several components all merge here."""
    merged = []
    for group in _merge_rates([(_key_value(part[0]), *part) for part in parts]):
        value, key = group[0][:2]
        dim = sum(g[2] for g in group)
        if dim > 0:
            branches = tuple(c for g in group for c in g[3])
            exact = key[1] if key[0] == "Q" else None
            merged.append(IndicialRoot(value, branches, dim, exact, key))
    return tuple(merged)


def d_lambda(cone: SLConeSpec, lam: Rate) -> int:
    """dim V_lambda: b1 at -1 (floats within MERGE_TOL), else mult(l(l+1)) + mult((l+2)(l+1))."""
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
        total += cone.multiplicity(t)
    return total


def indicial_roots(cone: SLConeSpec, window: Window) -> KernelTable:
    """All indicial roots in the window, with exact F/H merging bookkeeping."""
    return cone.kernel_table.restrict(window)


def table_symmetry(table: KernelTable) -> bool:
    """True iff every root's dimension matches its mirror at -2 - lambda."""
    return all(
        table.d_at(-2.0 - r.value if r.exact is None else -2 - r.exact) == r.total_dimension
        for r in table.roots
    )


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
    representative: float


@dataclass(frozen=True)
class JacobiSpectrum:
    entries: tuple[JacobiEigenvalue, ...]
    convention: str = JACOBI_CONVENTION
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
    cov_lo, cov_hi = table.rate_coverage()
    reps = []
    for r in indicial_roots(cone, window).roots:
        key = r.key if r.value >= -0.5 else _key_jacobi_partner(r.key)
        reps.append((_key_value(key), key, r))
    entries = []
    unpaired = []
    for group in _merge_rates(reps):
        rep_val, rep = group[0][:2]
        partner = _key_jacobi_partner(rep)
        rates = [(_key_value(partner), partner), (rep_val, rep)]
        if _same_rate(*rates[0], *rates[1]):  # rep = -1/2 is its own partner
            del rates[0]
        if not all(cov_lo <= v <= cov_hi for v, _ in rates):
            unpaired += [
                (r.value, r.total_dimension, _key_value(_key_jacobi_partner(r.key)))
                for *_, r in group
            ]
            continue
        entries.append(
            JacobiEigenvalue(
                eigenvalue=rep_val * rep_val + rep_val - 2.0,
                multiplicity=sum(table.d_at(k[1] if k[0] == "Q" else v) for v, k in rates),
                contributing_rates=tuple(
                    v
                    for v, k in rates
                    if any(_same_rate(r.value, r.key, v, k) for *_, r in group)
                ),
                representative=rep_val,
            )
        )
    entries.sort(key=lambda e: e.eigenvalue)
    return JacobiSpectrum(entries=tuple(entries), unpaired=tuple(sorted(unpaired)))


def morse_index(cone: SLConeSpec) -> int:
    """Morse index of the link's Jacobi operator:
    d_(-1) + 2 * sum_{-1<lambda<0} d_lambda + sum_{0<=lambda<1} d_lambda
    (needs the spectrum complete up to eigenvalue (1+2)(1+1) = 6).
    """
    table = cone.kernel_table
    negative = table.d_sum(Window(-1, 0, include_lo=False, include_hi=False))
    small = table.d_sum(Window(0, 1, include_lo=True, include_hi=False))
    return cone.topology.b1 + 2 * negative + small
