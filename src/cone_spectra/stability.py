"""Stability indices of associative cones, in exact rational arithmetic.

With d_lambda the homogeneous-kernel dimensions of the (possibly
disconnected) link, the three indices are

    s-ind-  =  d_(-1)/2 + sum_{-1<lambda<1} d_lambda - 7
    s-ind   =  d_(-1)/2 + sum_{-1<lambda<=1} d_lambda - 7 - sum_j dim Z_j
    s-ind+  =  d_(-1)/2 + sum_{-1<lambda<=1} d_lambda - 7 - sum_j (14 - dim H_j)

where H_j is the G2 symmetry group of the j-th link component and Z_j the
stratum of its moduli of holomorphic links.  Results are Fractions, never
floats: index formulas admit no tolerance.  Every d_lambda is read from
``cone.kernel_table``, its components' tables merged: d_(-1) from
``d_minus_one``, the open sum from ``d_open(-1, 1)`` and lambda = 1 from
``d_at(1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import MissingStratumData, MissingSymmetryData, NonPositiveArea
from .indicial import KernelTable, Rate, SLConeSpec, Window
from .spectra import LinkTopology

DIM_G2 = 14


@dataclass(frozen=True)
class DLambdaTable:
    """User-supplied rate -> dimension table, complete inside ``coverage``."""

    rows: tuple[tuple[Rate, int], ...]
    coverage: Window

    def __post_init__(self):
        for lam, d in self.rows:
            if d < 0:
                raise ValueError("dimensions must be nonnegative")
            if not self.coverage.contains(lam):
                raise ValueError(f"table row {lam} outside coverage {self.coverage}")

    @cached_property
    def kernel_table(self) -> KernelTable:
        """The rows as a kernel table on ``coverage``, duplicate rates summed."""
        return KernelTable.from_rows(self.coverage, self.rows)


KernelSource = Union[SLConeSpec, DLambdaTable]


@dataclass(frozen=True)
class ConeComponent:
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


@dataclass(frozen=True)
class ConeData:
    """An associative cone as a disjoint union of link components.

    Its one kernel table merges the components' tables on the rates they all
    cover; every d_lambda query of the indices reads that table.
    """

    components: tuple[ConeComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a cone needs at least one component")

    @cached_property
    def kernel_table(self) -> KernelTable:
        return KernelTable.union([c.kernel_source.kernel_table for c in self.components])


def s_ind_minus(cone: ConeData) -> Fraction:
    """Lower stability index d_(-1)/2 + sum_{-1<lambda<1} d_lambda - 7."""
    table = cone.kernel_table
    return Fraction(table.d_minus_one + 2 * (table.d_open(-1, 1) - 7), 2)


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
    return s_ind_minus(cone) + cone.kernel_table.d_at(1) - sum(_orbit_codims(cone))


def is_rigid(cone: ConeData) -> bool:
    """d_1 = sum_j (14 - dim H_j): all rate-1 deformations come from G2."""
    return cone.kernel_table.d_at(1) == sum(_orbit_codims(cone))


def s_ind(cone: ConeData) -> Fraction:
    """Stability index, subtracting the stratum dimensions (rigid default)."""
    strata = [c.stratum_dim for c in cone.components]
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
    return s_ind_minus(cone) + cone.kernel_table.d_at(1) - sum(strata)


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


def stability_report(cone: ConeData) -> dict:
    """JSON-ready report, its d-table on [-3, 1]; exact rationals are
    serialized as "p/q" strings."""
    d_table = cone.kernel_table.roots_in(Window(-3, 1))
    report: dict = {
        "d_table": [{"lambda": lam, "dimension": d} for lam, d in d_table],
        "s_ind_minus": str(s_ind_minus(cone)),
    }
    try:
        report["s_ind_plus"] = str(s_ind_plus(cone))
        report["rigid"] = is_rigid(cone)
    except MissingSymmetryData:
        report["s_ind_plus"] = None
        report["rigid"] = None
    try:
        report["s_ind"] = str(s_ind(cone))
    except (MissingStratumData, MissingSymmetryData):
        report["s_ind"] = None
    if any(c.is_plane for c in cone.components):
        report["note"] = (
            "contains a 3-plane component: excluded from the s-ind >= 0 guarantee"
        )
    return report
