"""Weighted Fueter index arithmetic: end sums, wall crossing, virtual dims."""

from fractions import Fraction

import numpy as np
import pytest

from cone_spectra.errors import CutoffExceeded, NonIntegerIndex, RateOnWall
from cone_spectra.fredholm import (
    AC,
    CS,
    EndSpec,
    OperatorSpec,
    ac_sl_kernel_dim,
    chamber,
    crossed_roots,
    cs_moduli_virtual_dim,
    index,
    index_report,
    wall_crossing,
    with_rates,
)
from cone_spectra.indicial import Window
from cone_spectra.presets import hl_cone, plane_cone, plane_pair_cone
from cone_spectra.stability import ConeComponent, ConeData, DLambdaTable

HL = hl_cone()
PLANE = plane_cone()
PAIR = plane_pair_cone()


def _ac(cone, rate):
    return OperatorSpec(AC, (EndSpec(cone, rate),))


def test_index_examples():
    assert index(_ac(HL, -0.9)) == 1  # d_-1 / 2
    assert index(_ac(HL, -1.1)) == -1  # crossing -1 removes d_-1
    assert index(_ac(HL, 0.5)) == 8  # crossing 0 adds d_0 = 7
    cs_two_planes = OperatorSpec(CS, (EndSpec(PLANE, -0.5), EndSpec(PLANE, -0.5)))
    assert index(cs_two_planes) == 0


def test_cs_is_minus_ac():
    for cone in (HL, PLANE, PAIR):
        for rate in (-1.7, -0.4, 0.3, 1.5):
            ac_op = _ac(cone, rate)
            cs_op = OperatorSpec(CS, ac_op.ends)
            assert index(ac_op) == -index(cs_op)


def test_wall_crossing_examples():
    op = _ac(HL, -0.9)
    assert wall_crossing(op, -0.9, 0.5) == 7
    assert wall_crossing(op, -1.1, -0.9) == 2
    assert wall_crossing(op, -0.55, -0.45) == 0  # same chamber
    assert crossed_roots(op, -0.9, 0.5) == [(0.0, 7)]


def test_wall_crossing_matches_index_difference():
    op = _ac(HL, -0.9)
    rng = np.random.default_rng(17)
    rates = []
    while len(rates) < 12:
        r = float(rng.uniform(-3.9, 1.9))
        if min(abs(r - k) for k in range(-4, 3)) > 1e-3:
            rates.append(r)
    for r_from, r_to in zip(rates[::2], rates[1::2]):
        jump = wall_crossing(op, r_from, r_to)
        assert jump == index(with_rates(op, r_to)) - index(with_rates(op, r_from))
    cs_op = OperatorSpec(CS, op.ends)
    for r_from, r_to in zip(rates[::2], rates[1::2]):
        jump = wall_crossing(cs_op, r_from, r_to)
        assert jump == index(with_rates(cs_op, r_to)) - index(with_rates(cs_op, r_from))


def test_wall_crossing_telescopes():
    op = _ac(HL, -0.9)
    rng = np.random.default_rng(19)
    for _ in range(50):
        r = rng.uniform(-3.9, 1.9, size=3)
        if any(min(abs(x - k) for k in range(-4, 3)) < 1e-3 for x in r):
            continue
        assert wall_crossing(op, r[0], r[1]) + wall_crossing(op, r[1], r[2]) == (
            wall_crossing(op, r[0], r[2])
        )


def test_index_constant_on_chamber():
    op = _ac(HL, 0.5)
    lo, hi = chamber(HL, 0.5)
    assert (lo, hi) == (0.0, 1.0)
    rng = np.random.default_rng(23)
    values = {
        index(with_rates(op, float(rng.uniform(lo + 1e-6, hi - 1e-6))))
        for _ in range(20)
    }
    assert values == {8}


def test_jump_across_minus_one_is_d_minus_one():
    # exact chamber detection picks s small enough that -1 is the only root
    for cone in (HL, PLANE, PAIR):
        lo, hi = chamber(cone, -1.0) if cone.kernel_table.d_at(-1) == 0 else (-2.0, 0.0)
        s = 0.25 * min(-1.0 - lo, hi - (-1.0))
        op = _ac(cone, -1 + s)
        assert index(op) - index(with_rates(op, -1 - s)) == cone.kernel_table.d_at(-1)


def test_with_rates_keeps_exact_rates():
    # one rate that is not a sequence sets every end, and is kept as given
    op = _ac(HL, -0.9)
    assert index(with_rates(op, Fraction(1, 2))) == 8
    (end,) = with_rates(op, [Fraction(1, 3)]).ends
    assert type(end.rate) is Fraction and end.rate == Fraction(1, 3)
    # so the wall check compares exact keys: 1e-12 below a root is off the
    # wall, where the float of the rate lies within MERGE_TOL of the root
    root = Fraction(1, 3) + Fraction(1, 10**12)
    near = ConeData((ConeComponent(DLambdaTable(((root, 1),), Window(-3, 1))),))
    assert index(with_rates(_ac(near, -0.5), [Fraction(1, 3)])) == 0
    with pytest.raises(RateOnWall):
        with_rates(_ac(near, -0.5), [1 / 3])


def test_rate_on_wall_rejected():
    with pytest.raises(RateOnWall):
        EndSpec(HL, 0.0)
    with pytest.raises(RateOnWall):
        wall_crossing(_ac(HL, -0.9), -0.9, 1.0)


def test_rate_outside_coverage_rejected():
    with pytest.raises(CutoffExceeded):
        EndSpec(HL, 5.0)


def test_non_integer_index_rejected():
    odd = ConeData(
        (ConeComponent(DLambdaTable(((-1, 1), (0, 7)), Window(-3, 3))),)
    )
    with pytest.raises(NonIntegerIndex):
        index(_ac(odd, -0.5))
    # two such ends pair up to an integer again
    op = OperatorSpec(AC, (EndSpec(odd, -0.5), EndSpec(odd, -0.5)))
    assert index(op) == 1


def test_virtual_dimensions():
    assert cs_moduli_virtual_dim([HL]) == -1
    assert cs_moduli_virtual_dim([HL], one_parameter=True) == 0
    assert cs_moduli_virtual_dim([HL, HL], one_parameter=True) == -1
    assert cs_moduli_virtual_dim([PAIR]) == -1


def test_ac_sl_kernel_dim():
    assert ac_sl_kernel_dim(0, 2) == 1  # Lawlor neck: S^2 x R over two spheres
    assert ac_sl_kernel_dim(1, 1) == 1  # HL smoothing: S^1 x C over T^2
    assert ac_sl_kernel_dim(0, 1) == 0
    with pytest.raises(ValueError):
        ac_sl_kernel_dim(-1, 1)
    with pytest.raises(ValueError):
        ac_sl_kernel_dim(0, 0)


def test_index_report_shape():
    report = index_report(_ac(HL, -0.9))
    assert report["index"] == 1
    (end,) = report["ends"]
    assert end["chamber"] == [-1.0, 0.0]
    assert end["contribution_ac"] == "1"
    assert end["d_minus_one"] == 2
