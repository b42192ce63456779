"""Homogeneous-kernel dimensions d_lambda and indicial roots of SL cones.

For a special Lagrangian cone with link spectrum spec(Delta) the rate-lambda
kernel decomposes into an F branch (lambda(lambda+1) an eigenvalue), an H
branch ((lambda+2)(lambda+1) an eigenvalue) and, exactly at lambda = -1, the
harmonic 1-forms of the link.  Every root coming from an integer eigenvalue
delta has the exact form (p + s * sqrt(1 + 4 delta)) / 2 with p in {-1, -3},
so cross-branch merging is decided by exact integer square-root tests; float
spectra fall back to a 1e-9 tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

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


def _key_value(key) -> float:
    if key[0] == "V":
        return key[1]
    if key[0] == "Q":
        return float(key[1])
    _, p, s, disc = key
    return (p + s * math.sqrt(disc)) / 2.0


def _key_exact(key) -> Fraction | None:
    return key[1] if key[0] == "Q" else None


def _key_reflect(key) -> tuple:
    """Reflection lambda -> -2 - lambda (the d-symmetry about -1)."""
    if key[0] == "Q":
        return ("Q", -2 - key[1])
    _, p, s, disc = key
    return ("I", -4 - p, -s, disc)


def _key_jacobi_partner(key) -> tuple:
    """Reflection lambda -> -1 - lambda (same Jacobi eigenvalue)."""
    if key[0] == "Q":
        return ("Q", -1 - key[1])
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


@dataclass(frozen=True)
class KernelTable:
    cone: SLConeSpec
    window: Window
    roots: tuple[IndicialRoot, ...]

    def total_dimension(self, sub: Window | None = None) -> int:
        if sub is None:
            return sum(r.total_dimension for r in self.roots)
        return sum(
            r.total_dimension for r in self.roots if sub.contains(r.value, r.exact)
        )

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.roots])


def _rate_coverage(cutoff: float) -> tuple[float, float]:
    """The closed rate interval whose d_lambda only needs eigenvalues <= cutoff.

    d_lambda needs the eigenvalues lambda(lambda+1) and (lambda+2)(lambda+1);
    the larger of the two grows monotonically away from lambda = -1.
    """
    root = math.sqrt(1.0 + 4.0 * cutoff)
    return ((-1.0 - root) / 2.0, (-3.0 + root) / 2.0)


def _check_window_cutoff(cone: SLConeSpec, window: Window) -> None:
    lo, hi = _rate_coverage(cone.spectrum.cutoff)
    if float(window.lo) < lo or float(window.hi) > hi:
        raise CutoffExceeded(
            f"window {window} leaves [{lo:g}, {hi:g}], the rates whose kernels "
            f"the spectrum (complete to {cone.spectrum.cutoff:g}) determines"
        )


def _same_rate(value: float, exact, other_value: float, other_exact) -> bool:
    """Equal exact identities, or (either missing) values within MERGE_TOL."""
    if exact is not None and other_exact is not None:
        return exact == other_exact
    return abs(value - other_value) <= MERGE_TOL


def _merge_rates(entries) -> list[tuple]:
    """Group (rate, exact identity or None, item) entries by rate in one sorted pass.

    Returns (rate, identity, items) per rate in increasing order.  Each group
    takes its rate and identity from its earliest entry and keeps its items
    in input order.
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    groups: list[list[int]] = []
    for i in order:
        if groups and _same_rate(*entries[groups[-1][0]][:2], *entries[i][:2]):
            groups[-1].append(i)
        else:
            groups.append([i])
    merged = []
    for group in groups:
        group.sort()
        rate, exact, _ = entries[group[0]]
        merged.append((rate, exact, [entries[i][2] for i in group]))
    return merged


def d_lambda(cone: SLConeSpec, lam: Rate) -> int:
    """dim V_lambda: b1 at lambda = -1, else mult(l(l+1)) + mult((l+2)(l+1))."""
    exact = _is_exact(lam)
    if exact:
        lam = Fraction(lam)
        if lam == -1:
            return cone.topology.b1
        targets = [lam * (lam + 1), (lam + 2) * (lam + 1)]
    else:
        lam = float(lam)
        if lam == -1.0:
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
    _check_window_cutoff(cone, window)
    exact_spec = cone.spectrum.exact
    found: list[tuple] = []

    def add(key, contribution):
        value = _key_value(key)
        if window.contains(value, _key_exact(key)):
            # float spectra merge by value tolerance instead of exact identity
            found.append((value, key if exact_spec else None, (key, contribution)))

    for delta, mult in cone.spectrum.entries:
        dval = float(delta)
        m = cone.multiplicity(delta)
        disc = 1.0 + 4.0 * dval
        for p, branch in ((-1, F_BRANCH), (-3, H_BRANCH)):
            for s in (+1, -1):
                lam = (p + s * math.sqrt(disc)) / 2.0
                if abs(lam + 1.0) < 1e-12:
                    continue  # lambda = -1 carries only harmonic 1-forms
                key = _root_key(p, s, delta) if exact_spec else ("V", lam)
                add(key, BranchContribution(branch, dval, m))

    if cone.topology.b1 > 0:
        key = ("Q", Fraction(-1)) if exact_spec else ("V", -1.0)
        add(key, BranchContribution(HARMONIC_ONE_FORM, 0.0, cone.topology.b1))

    roots = []
    for value, _, members in _merge_rates(found):
        key = members[0][0]
        contribs = tuple(c for _, c in members)
        roots.append(
            IndicialRoot(
                value=value,
                branch_contributions=contribs,
                total_dimension=sum(c.dimension for c in contribs),
                exact=_key_exact(key),
                key=key,
            )
        )
    return KernelTable(cone=cone, window=window, roots=tuple(roots))


def table_symmetry(table: KernelTable) -> bool:
    """True iff every root's dimension matches its mirror at -2 - lambda."""
    by_key = {r.key: r.total_dimension for r in table.roots if r.key and r.key[0] != "V"}
    for r in table.roots:
        if r.key and r.key[0] != "V":
            dim = by_key.get(_key_reflect(r.key), 0)
        else:
            mirrored = -2.0 - r.value
            dim = next(
                (
                    q.total_dimension
                    for q in table.roots
                    if abs(q.value - mirrored) <= MERGE_TOL
                ),
                0,
            )
        if dim != r.total_dimension:
            return False
    return True


def symmetry_check(cone: SLConeSpec, window: Window) -> bool:
    """Verify d_lambda = d_(-2-lambda) for every root in a window symmetric about -1."""
    mid = (float(window.lo) + float(window.hi)) / 2.0
    if abs(mid + 1.0) > 1e-12 or window.include_lo != window.include_hi:
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


def jacobi_spectrum(cone: SLConeSpec, window: Window) -> JacobiSpectrum:
    """Jacobi-operator eigenvalues lambda^2+lambda-2 over roots in the window.

    The rate pairs (lambda, -1-lambda) collide on the same eigenvalue; the
    collision is resolved exactly via root identity keys and multiplicities
    are reported at the representative rate >= -1/2 (see JACOBI_CONVENTION).
    """
    table = indicial_roots(cone, window)
    seen: set = set()
    entries = []
    for r in table.roots:
        if r.key[0] == "V":
            rep_val = max(r.value, -1.0 - r.value)
            pair_id = ("V", round(rep_val / MERGE_TOL))
            partner_val = -1.0 - rep_val
            rep: Rate = rep_val
            partner: Rate = partner_val
        else:
            partner_key = _key_jacobi_partner(r.key)
            rep_key = r.key if _key_value(r.key) >= -0.5 else partner_key
            pair_id = rep_key
            rep_val = _key_value(rep_key)
            partner_val = _key_value(_key_jacobi_partner(rep_key))
            rep = rep_key[1] if rep_key[0] == "Q" else rep_val
            partner = -1 - rep if _is_exact(rep) else partner_val
        if pair_id in seen:
            continue
        seen.add(pair_id)
        if abs(rep_val - (-0.5)) < 1e-15:
            mult = d_lambda(cone, rep)
            contributors = (rep_val,)
        else:
            mult = d_lambda(cone, rep) + d_lambda(cone, partner)
            contributors = tuple(
                v
                for v in (partner_val, rep_val)
                if any(abs(q.value - v) <= MERGE_TOL for q in table.roots)
            )
        ev = rep_val * rep_val + rep_val - 2.0
        entries.append(
            JacobiEigenvalue(
                eigenvalue=ev,
                multiplicity=mult,
                contributing_rates=contributors,
                representative=rep_val,
            )
        )
    entries.sort(key=lambda e: e.eigenvalue)
    return JacobiSpectrum(entries=tuple(entries))


def morse_index(cone: SLConeSpec) -> int:
    """Morse index of the link's Jacobi operator:
    d_(-1) + 2 * sum_{-1<lambda<0} d_lambda + sum_{0<=lambda<1} d_lambda.
    """
    # roots with lambda < 1 can be sourced by eigenvalues up to (1+2)(1+1) = 6
    if cone.spectrum.cutoff < 6.0 - 1e-12:
        raise CutoffExceeded(
            "Morse index needs the spectrum complete up to eigenvalue 6 "
            f"(cutoff is {cone.spectrum.cutoff:g})"
        )
    negative = indicial_roots(cone, Window(-1, 0, include_lo=False, include_hi=False))
    small = indicial_roots(cone, Window(0, 1, include_lo=True, include_hi=False))
    return (
        cone.topology.b1
        + 2 * negative.total_dimension()
        + small.total_dimension()
    )
