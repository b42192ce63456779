"""Stability indices of associative cones, in exact rational arithmetic.

With d_lambda the homogeneous-kernel dimensions of the (possibly
disconnected) link, the three indices are

    s-ind-  =  d_(-1)/2 + sum_{-1<lambda<1} d_lambda - 7
    s-ind   =  d_(-1)/2 + sum_{-1<lambda<=1} d_lambda - 7 - sum_j dim Z_j
    s-ind+  =  d_(-1)/2 + sum_{-1<lambda<=1} d_lambda - 7 - sum_j (14 - dim H_j)

where H_j is the G2 symmetry group of the j-th link component and Z_j the
stratum of its moduli of holomorphic links.  Results are Fractions, never
floats: index formulas admit no tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Union

from .errors import (
    CutoffExceeded,
    MissingStratumData,
    MissingSymmetryData,
    NonPositiveArea,
)
from .indicial import (
    MERGE_TOL,
    Rate,
    SLConeSpec,
    Window,
    _merge_rates,
    _rate_coverage,
    _same_rate,
    indicial_roots,
)
from .spectra import LinkTopology, _is_exact

DIM_G2 = 14

OPEN_UNIT = Window(-1, 1, include_lo=False, include_hi=False)
HALF_OPEN_UNIT = Window(-1, 1, include_lo=False, include_hi=True)

#: one row of a root table: (rate, exact rate or None, d_lambda)
Row = tuple[float, Union[Fraction, None], int]
_rate = itemgetter(0)


@dataclass(frozen=True)
class DLambdaTable:
    """User-supplied rate -> dimension table, complete inside ``coverage``."""

    rows: tuple[tuple[Rate, int], ...]
    coverage: Window

    def __post_init__(self):
        for lam, d in self.rows:
            if d < 0:
                raise ValueError("dimensions must be nonnegative")
            if not self.coverage.contains(float(lam), Fraction(lam) if _is_exact(lam) else None):
                raise ValueError(f"table row {lam} outside coverage {self.coverage}")


KernelSource = Union[SLConeSpec, DLambdaTable]


def _merge_rows(rows: list[Row]) -> tuple[Row, ...]:
    """Rows sorted by rate, one per rate (dimensions summed), none of dimension 0."""
    merged = ((rate, exact, sum(dims)) for rate, exact, dims in _merge_rates(rows))
    return tuple(row for row in merged if row[2] > 0)


class _RootTableQueries:
    """d_lambda queries answered as slices of one sorted root table.

    Subclasses provide ``_roots``, built once: the closed rate interval on
    which the table is complete, and its merged rows in increasing rate.
    """

    def rate_coverage(self) -> tuple[float, float]:
        """The closed rate interval on which d_lambda data is complete."""
        return self._roots[0]

    def _check_covered(self, lo: float, hi: float) -> None:
        cov_lo, cov_hi = self._roots[0]
        if lo < cov_lo or hi > cov_hi:
            raise CutoffExceeded(
                f"kernel data only covers [{cov_lo:g}, {cov_hi:g}], asked for "
                f"[{lo:g}, {hi:g}]"
            )

    def _rows_between(self, lo: float, hi: float) -> tuple[Row, ...]:
        rows = self._roots[1]
        return rows[bisect_left(rows, lo, key=_rate) : bisect_right(rows, hi, key=_rate)]

    def d_at(self, lam: Rate) -> int:
        value, exact = float(lam), Fraction(lam) if _is_exact(lam) else None
        self._check_covered(value, value)
        near = self._rows_between(value - MERGE_TOL, value + MERGE_TOL)
        return sum(d for rate, e, d in near if _same_rate(rate, e, value, exact))

    def d_sum(self, window: Window) -> int:
        return sum(d for _, d in self.roots_in(window))

    def roots_in(self, window: Window) -> list[tuple[float, int]]:
        lo, hi = float(window.lo), float(window.hi)
        self._check_covered(lo, hi)
        return [
            (rate, d)
            for rate, exact, d in self._rows_between(lo, hi)
            if window.contains(rate, exact)
        ]


@dataclass(frozen=True)
class ConeComponent(_RootTableQueries):
    """One connected link component plus its optional group/stratum data."""

    kernel_source: KernelSource
    symmetry_group_dim: int | None = None
    stratum_dim: int | None = None
    is_plane: bool = False

    def __post_init__(self):
        if self.symmetry_group_dim is not None and not (
            0 <= self.symmetry_group_dim <= DIM_G2
        ):
            raise ValueError("symmetry group dimension must lie in [0, 14]")
        if (
            self.symmetry_group_dim is not None
            and self.stratum_dim is not None
            and self.stratum_dim < DIM_G2 - self.symmetry_group_dim
        ):
            raise ValueError("stratum_dim must be >= 14 - symmetry_group_dim")

    @cached_property
    def _roots(self) -> tuple[tuple[float, float], tuple[Row, ...]]:
        source = self.kernel_source
        if isinstance(source, DLambdaTable):
            coverage = (float(source.coverage.lo), float(source.coverage.hi))
            rows = [
                (float(lam), Fraction(lam) if _is_exact(lam) else None, d)
                for lam, d in source.rows
            ]
        else:
            coverage = _rate_coverage(source.spectrum.cutoff)
            table = indicial_roots(source, Window(*coverage))
            rows = [(r.value, r.exact, r.total_dimension) for r in table.roots]
        return coverage, _merge_rows(rows)


@dataclass(frozen=True)
class ConeData(_RootTableQueries):
    """An associative cone as a disjoint union of link components."""

    components: tuple[ConeComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a cone needs at least one component")

    @cached_property
    def _roots(self) -> tuple[tuple[float, float], tuple[Row, ...]]:
        tables = [c._roots for c in self.components]
        coverage = (max(cov[0] for cov, _ in tables), min(cov[1] for cov, _ in tables))
        return coverage, _merge_rows([row for _, rows in tables for row in rows])


def _base_sum(cone: ConeData, window: Window) -> Fraction:
    return Fraction(cone.d_at(-1), 2) + cone.d_sum(window) - 7


def s_ind_minus(cone: ConeData) -> Fraction:
    """Lower stability index d_(-1)/2 + sum_{-1<lambda<1} d_lambda - 7."""
    return _base_sum(cone, OPEN_UNIT)


def _orbit_codims(cone: ConeData) -> list[int]:
    dims = []
    for c in cone.components:
        if c.symmetry_group_dim is None:
            raise MissingSymmetryData(
                "every component needs symmetry_group_dim for this index"
            )
        dims.append(DIM_G2 - c.symmetry_group_dim)
    return dims


def s_ind_plus(cone: ConeData) -> Fraction:
    """Upper stability index, subtracting the G2-orbit dimensions."""
    return _base_sum(cone, HALF_OPEN_UNIT) - sum(_orbit_codims(cone))


def is_rigid(cone: ConeData) -> bool:
    """d_1 = sum_j (14 - dim H_j): all rate-1 deformations come from G2."""
    return cone.d_at(1) == sum(_orbit_codims(cone))


def s_ind(cone: ConeData) -> Fraction:
    """Stability index, subtracting the stratum dimensions (rigid default)."""
    strata = []
    for c in cone.components:
        if c.stratum_dim is not None:
            strata.append(c.stratum_dim)
        else:
            strata.append(None)
    if any(s is None for s in strata):
        # rigid cones default the stratum to the G2 orbit
        try:
            rigid = is_rigid(cone)
        except MissingSymmetryData:
            raise MissingStratumData(
                "components lack stratum_dim and rigidity cannot be decided"
            ) from None
        if not rigid:
            raise MissingStratumData(
                "non-rigid cone: stratum_dim must be supplied per component"
            )
        codims = _orbit_codims(cone)
        strata = [s if s is not None else codims[i] for i, s in enumerate(strata)]
    return _base_sum(cone, HALF_OPEN_UNIT) - sum(strata)


@dataclass(frozen=True)
class NullTorsionBound:
    b: float
    bound: float
    meets_minimal_area: bool


def null_torsion_bound(area: float) -> NullTorsionBound:
    """Lower stability-index bound 2b - 7 with b = Area/(4 pi).

    ``meets_minimal_area`` records whether Area >= 24 pi, the smallest area a
    null-torsion curve can have; below it the formula is still evaluated but
    the input is outside the theorem's hypotheses.
    """
    if not area > 0:
        raise NonPositiveArea(f"area must be positive, got {area}")
    b = area / (4.0 * math.pi)
    return NullTorsionBound(
        b=b,
        bound=2.0 * b - 7.0,
        meets_minimal_area=area >= 24.0 * math.pi * (1.0 - 1e-12),
    )


def sl_lower_bound(topology: LinkTopology) -> Fraction:
    """b^1/2 + b^0 - 1, the sharp SL-cone lower bound for s-ind-."""
    return Fraction(topology.b1, 2) + topology.b0 - 1


def stability_report(cone: ConeData, window: Window | None = None) -> dict:
    """JSON-ready report; exact rationals are serialized as "p/q" strings."""
    window = window or Window(-3, 1)

    def rat(x: Fraction) -> str:
        return str(x)

    report: dict = {
        "d_table": [
            {"lambda": lam, "dimension": d} for lam, d in cone.roots_in(window)
        ],
        "s_ind_minus": rat(s_ind_minus(cone)),
    }
    try:
        report["s_ind_plus"] = rat(s_ind_plus(cone))
        report["rigid"] = is_rigid(cone)
    except MissingSymmetryData:
        report["s_ind_plus"] = None
        report["rigid"] = None
    try:
        report["s_ind"] = rat(s_ind(cone))
    except (MissingStratumData, MissingSymmetryData):
        report["s_ind"] = None
    if any(c.is_plane for c in cone.components):
        report["note"] = (
            "contains a 3-plane component: excluded from the s-ind >= 0 guarantee"
        )
    return report
