"""Fredholm index arithmetic for the Fueter operator on AC/CS associatives.

In weighted spaces the operator is Fredholm away from the wall of critical
rates, and for an AC submanifold with ends modeled on cones C_i at rates
lambda_i the index is

    ind = sum_{lambda_i >= -1} ( d_(-1),i / 2 + sum_{zeta in D_i, -1 < zeta < lambda_i} d_zeta )
        - sum_{lambda_i <  -1} ( d_(-1),i / 2 + sum_{zeta in D_i, lambda_i < zeta < -1} d_zeta ).

The CS index is its negation, and crossing a root lambda changes the AC
index by d_lambda (wall crossing).  Half-integer bookkeeping is exact; only
the final sum is demanded integral.

Only index identities are exposed here.  The theory also identifies the
cokernel at rate lambda with the kernel at the conjugate rate -2 - lambda;
since no kernels are constructed as function spaces, that identification is
recorded in this note and not computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import NonIntegerIndex, RateOnWall
from .indicial import Rate, Window
from .stability import ConeData, s_ind

AC = "ac"
CS = "cs"

CHAMBER_SPAN = 4.0


@dataclass(frozen=True)
class EndSpec:
    """One conical end: its model cone and the weight rate used there."""

    cone: ConeData
    rate: Rate

    def __post_init__(self):
        _check_off_wall(self.cone, self.rate)


@dataclass(frozen=True)
class OperatorSpec:
    kind: Literal["ac", "cs"]
    ends: tuple[EndSpec, ...]

    def __post_init__(self):
        if self.kind not in (AC, CS):
            raise ValueError("kind must be 'ac' or 'cs'")
        if not self.ends:
            raise ValueError("need at least one end")


def _check_off_wall(cone: ConeData, rate: Rate) -> None:
    """RateOnWall on an indicial root; CutoffExceeded (from ``at``) outside the coverage."""
    on_wall = cone.kernel_table.at(rate)
    if on_wall:
        raise RateOnWall(f"rate {float(rate)} lies on the indicial root {on_wall[0].value}")


def _twice_contribution(end: EndSpec) -> int:
    """Twice the end's AC contribution: d_(-1) plus twice the d between -1 and
    the rate, negated below -1."""
    table = end.cone.kernel_table
    if end.rate >= -1.0:
        return table.d_minus_one + 2 * table.d_open(-1, end.rate)
    return -table.d_minus_one - 2 * table.d_open(end.rate, -1)


def _as_integer(total: Fraction) -> int:
    if total.denominator != 1:
        raise NonIntegerIndex(
            f"end contributions sum to {total}; an odd d_(-1) was left unpaired"
        )
    return int(total)


def index(op: OperatorSpec) -> int:
    """Fredholm index of the weighted Fueter operator (AC; negated for CS)."""
    twice = sum(map(_twice_contribution, op.ends))
    value = _as_integer(Fraction(twice, 2)) if twice % 2 else twice // 2
    return value if op.kind == AC else -value


def _span(op: OperatorSpec, rate_from: float, rate_to: float) -> tuple[float, float]:
    """The two rates in increasing order, each checked off every end's wall."""
    for e in op.ends:
        _check_off_wall(e.cone, rate_from)
        _check_off_wall(e.cone, rate_to)
    return min(rate_from, rate_to), max(rate_from, rate_to)


def crossed_roots(op: OperatorSpec, rate_from: float, rate_to: float) -> list[tuple[float, int]]:
    """Indicial roots of every end strictly between the two (off-wall) rates."""
    lo, hi = _span(op, rate_from, rate_to)
    window = Window(lo, hi, include_lo=False, include_hi=False)
    out: list[tuple[float, int]] = []
    for e in op.ends:
        out.extend(e.cone.kernel_table.roots_in(window))
    return sorted(out)


def wall_crossing(op: OperatorSpec, rate_from: float, rate_to: float) -> int:
    """Index jump when moving rates from ``rate_from`` to ``rate_to``.

    Computed as the signed sum of d_lambda over the crossed roots (those of
    :func:`crossed_roots`, summed from each table's prefix sums); equals
    index(at rate_to) - index(at rate_from).  Every end moves its rate
    together.
    """
    lo, hi = _span(op, rate_from, rate_to)
    crossed = sum(e.cone.kernel_table.d_open(lo, hi) for e in op.ends)
    direction = 1 if rate_to > rate_from else -1
    sign = direction if op.kind == AC else -direction
    return sign * crossed


def with_rates(op: OperatorSpec, rates: Sequence[Rate] | Rate) -> OperatorSpec:
    """A copy of ``op`` with new weight rates, each kept as given (an exact
    rate stays exact); one rate that is not a sequence sets every end."""
    if not isinstance(rates, Sequence):
        rates = [rates] * len(op.ends)
    if len(rates) != len(op.ends):
        raise ValueError("need one rate per end")
    return OperatorSpec(
        kind=op.kind,
        ends=tuple(EndSpec(e.cone, r) for e, r in zip(op.ends, rates)),
    )


def cs_moduli_virtual_dim(cones: Sequence[ConeData], one_parameter: bool = False) -> int:
    """-sum_i s-ind(C_i), plus 1 inside a one-parameter family."""
    total = -sum((s_ind(c) for c in cones), Fraction(0))
    if one_parameter:
        total += 1
    return _as_integer(total)


def ac_sl_kernel_dim(b1_of_L: int, b0_of_link: int) -> int:
    """dim ker at rate -1 for an AC special Lagrangian: b^1(L) + b^0(link) - 1."""
    if b1_of_L < 0:
        raise ValueError("b1 must be nonnegative")
    if b0_of_link < 1:
        raise ValueError("the link of a nonempty cone has b0 >= 1")
    return b1_of_L + b0_of_link - 1


def chamber(cone: ConeData, rate: float) -> tuple[float, float]:
    """The open interval of off-wall rates around ``rate``.

    Clipped to rate +- CHAMBER_SPAN and to the rates the cone's kernel data
    covers, so chamber detection never asks for eigenvalues beyond the cutoff.
    """
    _check_off_wall(cone, rate)
    table = cone.kernel_table
    cov_lo, cov_hi = table.rate_coverage
    lo, hi = max(rate - CHAMBER_SPAN, cov_lo), min(rate + CHAMBER_SPAN, cov_hi)
    # off the wall, no root equals rate: the nearest roots bound the chamber
    below, above = table.between(lo, rate), table.between(rate, hi)
    if below:
        lo = max(lo, below[-1].value)
    if above:
        hi = min(hi, above[0].value)
    return lo, hi


def index_report(op: OperatorSpec) -> dict:
    """JSON-ready report with per-end contributions and chamber walls."""
    ends = []
    for e in op.ends:
        contrib = Fraction(_twice_contribution(e), 2)
        lo, hi = chamber(e.cone, e.rate)
        ends.append(
            {
                "rate": float(e.rate),
                "contribution_ac": str(contrib),
                "chamber": [lo, hi],
                "d_minus_one": e.cone.kernel_table.d_minus_one,
            }
        )
    return {"kind": op.kind, "index": index(op), "ends": ends}
