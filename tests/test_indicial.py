"""Kernel dimensions, indicial roots, Jacobi spectra and Morse indices."""

import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cone_spectra.errors import CutoffExceeded
from cone_spectra.indicial import (
    JACOBI_CONVENTION,
    BranchContribution,
    IndicialRoot,
    KernelTable,
    SLConeSpec,
    Window,
    d_lambda,
    indicial_roots,
    jacobi_spectrum,
    morse_index,
    symmetry_check,
    table_symmetry,
)
from cone_spectra.cli import run
from cone_spectra.presets import hl_cone_spec, plane_cone_spec, torus_cone, torus_cone_spec
from cone_spectra.spectra import LinkTopology, Spectrum, TorusMetric, torus_spectrum
from cone_spectra.stability import s_ind_minus

HL = hl_cone_spec()
PLANE = plane_cone_spec()


def test_hl_d_table():
    assert d_lambda(HL, 0) == 7
    assert d_lambda(HL, -1) == 2
    assert d_lambda(HL, 1) == 12
    assert d_lambda(HL, -2) == 7
    assert d_lambda(HL, -3) == 12


def test_plane_d_values():
    assert d_lambda(PLANE, 1) == 8
    assert d_lambda(PLANE, 0.5) == 0
    assert d_lambda(PLANE, 0) == 4
    assert d_lambda(PLANE, -1) == 0


def test_d_lambda_brute_force_oracle():
    # re-derive d from the raw spectrum: mult(l(l+1)) + mult((l+2)(l+1))
    spectrum = dict(HL.spectrum.entries)
    for lam in (-3, -2, Fraction(-3, 2), 0, Fraction(1, 2), 1):
        t1, t2 = lam * (lam + 1), (lam + 2) * (lam + 1)
        expected = sum(spectrum.get(t, 0) for t in (t1, t2) if t >= 0)
        assert d_lambda(HL, lam) == expected


def test_hl_roots_window():
    table = indicial_roots(HL, Window(-2, 1))
    assert [(r.value, r.total_dimension) for r in table.roots] == [
        (-2.0, 7),
        (-1.0, 2),
        (0.0, 7),
        (1.0, 12),
    ]


def test_root_branch_bookkeeping():
    table = indicial_roots(HL, Window(0, 0))
    (root,) = table.roots
    branches = {(b.branch, b.source_eigenvalue, b.dimension) for b in root.branch_contributions}
    assert branches == {("F", 0.0, 1), ("H", 2.0, 6)}
    assert root.key == ("Q", 0)


def test_plane_open_window():
    table = indicial_roots(PLANE, Window(-1, 1, include_lo=False, include_hi=False))
    assert [(r.value, r.total_dimension) for r in table.roots] == [(0.0, 4)]


def test_empty_window():
    table = indicial_roots(HL, Window(0.1, 0.9))
    assert table.roots == ()


def test_window_endpoint_semantics():
    closed = indicial_roots(HL, Window(-1, 1))
    open_ = indicial_roots(HL, Window(-1, 1, include_lo=False, include_hi=False))
    dims = [sum(r.total_dimension for r in t.roots) for t in (closed, open_)]
    assert dims[0] - dims[1] == 2 + 12


def test_merging_preserves_total_dimension():
    # sum over the window equals the sum of pointwise d_lambda at the roots
    table = indicial_roots(HL, Window(-3, 1))
    total = sum(d_lambda(HL, r.key[1] if r.key[0] == "Q" else r.value) for r in table.roots)
    assert sum(r.total_dimension for r in table.roots) == total


def test_indicial_roots_deterministic():
    t1 = indicial_roots(HL, Window(-3, 1))
    t2 = indicial_roots(HL, Window(-3, 1))
    assert t1 == t2


def test_symmetry_checks():
    assert symmetry_check(HL, Window(-3, 1))
    assert symmetry_check(PLANE, Window(-3, 1))


def test_symmetry_random_metrics():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.4 * np.eye(2)
        cone = SLConeSpec(
            torus_spectrum(TorusMetric(g[0, 0], g[0, 1], g[1, 1]), 8.0),
            LinkTopology(1, 2),
        )
        assert symmetry_check(cone, Window(-3, 1))


def test_symmetry_negative_control():
    # a hand-made asymmetric table must fail the checker
    def root(value, dim):
        return IndicialRoot(
            value=float(value),
            branch_contributions=(BranchContribution("F", 0.0, dim),),
            total_dimension=dim,
            key=("Q", Fraction(value)),
        )

    good = KernelTable(Window(-3, 1), (root(-2, 7), root(0, 7)))
    assert table_symmetry(good)
    broken = KernelTable(Window(-3, 1), (root(-2, 5), root(0, 7)))
    assert not table_symmetry(broken)


def test_symmetry_window_must_be_symmetric():
    with pytest.raises(ValueError):
        symmetry_check(HL, Window(-2, 1))


def test_jacobi_hl():
    js = jacobi_spectrum(HL, Window(-2, 1))
    by_ev = {round(e.eigenvalue, 9): e for e in js.entries}
    assert by_ev[-2.0].multiplicity == 9  # V_-1 + V_0
    assert by_ev[0.0].multiplicity == 19  # V_1 + V_-2 (= d_0 + d_1 by symmetry)
    assert set(by_ev[-2.0].contributing_rates) == {-1.0, 0.0}
    assert "rep >= -1/2" in JACOBI_CONVENTION


def test_jacobi_pair_collision_handled_once():
    # the rates -2 and 1 share the Jacobi eigenvalue 0: one entry, not two
    js = jacobi_spectrum(HL, Window(-3, 1))
    values = [round(e.eigenvalue, 9) for e in js.entries]
    assert values == sorted(set(values))
    assert values.count(0.0) == 1


def test_jacobi_empty_window():
    assert jacobi_spectrum(HL, Window(0.1, 0.9)).entries == ()


def test_jacobi_irrational_rates():
    # eigenvalue 5 contributes irrational roots; map lambda^2+lambda-2 must
    # match the source eigenvalue minus 2 on the F-branch
    cone = SLConeSpec(
        Spectrum(((0, 1), (2, 6), (5, 4), (6, 6)), 12.0),
        LinkTopology(1, 2),
    )
    js = jacobi_spectrum(cone, Window(-3, 2))
    assert any(abs(e.eigenvalue - 3.0) < 1e-12 for e in js.entries)  # 5 - 2


def test_morse_indices():
    assert morse_index(HL) == 9
    assert morse_index(PLANE) == 4


def test_morse_minimal_cone():
    # no SL cone has an empty (-1, 1) root set: the locally constant
    # functions put b0 into d_0, so the index floor is b0, not 0
    cone = SLConeSpec(
        Spectrum(((0, 1), (7, 4)), 12.0), LinkTopology(1, 0)
    )
    assert morse_index(cone) == 1
    assert d_lambda(cone, 0) == 1


def test_morse_needs_cutoff_six():
    cone = SLConeSpec(
        Spectrum(((0, 1), (2, 6)), 4.0), LinkTopology(1, 2)
    )
    with pytest.raises(CutoffExceeded):
        morse_index(cone)


def test_cutoff_errors():
    with pytest.raises(CutoffExceeded):
        d_lambda(HL, 3.5)
    with pytest.raises(CutoffExceeded):
        indicial_roots(HL, Window(-6, 1))


def test_negative_target_needs_no_cutoff():
    # lambda in (-1, 0): the F-target is negative, only the H-target matters
    cone = SLConeSpec(
        Spectrum(((0, 1), (2, 6)), 2.0), LinkTopology(1, 2)
    )
    assert d_lambda(cone, Fraction(-1, 2)) == 0


def test_kernel_table_json():
    # the rows the CLI embeds as each component's roots
    rows = [r.to_dict() for r in indicial_roots(HL, Window(-2, 1)).roots]
    assert {"lambda": 0.0, "dimension": 7} == {
        "lambda": rows[2]["lambda"],
        "dimension": rows[2]["dimension"],
    }
    assert rows[1]["branches"][0]["branch"] == "HARMONIC_ONE_FORM"


def test_float_spectrum_path():
    # scaled metric -> float eigenvalues; d values agree with exact ones
    scale = 1.0000000001
    m = TorusMetric(2 / 3 * scale, 1 / 3 * scale, 2 / 3 * scale)
    cone = SLConeSpec(torus_spectrum(m, 12.0), LinkTopology(1, 2))
    assert not cone.spectrum.exact
    table = indicial_roots(cone, Window(-2, 1))
    assert [r.total_dimension for r in table.roots] == [7, 2, 7, 12]
    assert symmetry_check(cone, Window(-3, 1))


def test_mult_zero_comes_from_topology():
    with pytest.raises(ValueError):
        SLConeSpec(Spectrum(((0, 2), (2, 6)), 8.0), LinkTopology(1, 2))


# ---------------------------------------------------------------------------
# exact roots of rational spectra, against integer comparisons
# ---------------------------------------------------------------------------

def _sign_sum(a, b, u):
    """The sign of a + b sqrt(u), for rationals a, b and u >= 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or u == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa * ((a * a > b * b * u) - (a * a < b * b * u))


def _compare(x, y):
    """sign(x - y) for rates x = (p + s sqrt(D)) / 2 given as (p, s, D)."""
    (p1, s1, d1), (p2, s2, d2) = x, y
    # 2 (x - y) = P + Q with P = a + b sqrt(d1) and Q = c sqrt(d2)
    a, b, c = Fraction(p1 - p2), s1, -s2
    sp, sq = _sign_sum(a, b, d1), _sign_sum(0, c, d2)
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    # opposite signs: sign(P + Q) = sign(P) sign(P^2 - Q^2)
    return sp * _sign_sum(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)


def _rational(q):
    return (2 * Fraction(q), 0, Fraction(0))


def _oracle_roots(metric, cutoff, b1=2):
    """(rate, dimension) of every distinct root, in exact increasing order:
    the spectrum by Fraction enumeration, roots merged by exact comparison."""
    a, b, c = metric.inverse()
    m_box = math.isqrt(math.floor(cutoff * metric.g11)) + 1
    n_box = math.isqrt(math.floor(cutoff * metric.g22)) + 1
    mult = {}
    for m in range(-m_box, m_box + 1):
        for n in range(-n_box, n_box + 1):
            q = a * m * m + 2 * b * m * n + c * n * n
            if q <= cutoff:
                mult[q] = mult.get(q, 0) + 1
    roots = [(_rational(-1), b1)]
    for delta, dim in mult.items():
        disc = 1 + 4 * delta
        for p in (-1, -3):
            for s in (1, -1):
                if delta == 0 and p + s == -2:
                    continue  # eigenvalue 0's roots at -1: only harmonic forms live there
                roots.append(((p, s, disc), dim))
    roots.sort(key=functools.cmp_to_key(lambda x, y: _compare(x[0], y[0])))
    merged = []
    for rate, dim in roots:
        if merged and _compare(merged[-1][0], rate) == 0:
            merged[-1][1] += dim
        else:
            merged.append([rate, dim])
    return merged


def _oracle_sum(roots, window):
    lo, hi = _rational(window.lo), _rational(window.hi)

    def inside(rate):
        # floats decide only roots 1e-6 clear of both bounds, far beyond their rounding
        value = _float(rate)
        if float(window.lo) + 1e-6 < value < float(window.hi) - 1e-6:
            return True
        if not float(window.lo) - 1e-6 < value < float(window.hi) + 1e-6:
            return False
        side_lo, side_hi = _compare(rate, lo), _compare(rate, hi)
        return (side_lo > 0 or (side_lo == 0 and window.include_lo)) and (
            side_hi < 0 or (side_hi == 0 and window.include_hi)
        )

    return sum(dim for rate, dim in roots if inside(rate))


def _float(rate):
    p, s, disc = rate
    return (p + s * math.sqrt(disc)) / 2


def _clusters(pairs):
    """(value, dimension) pairs as runs of values within 1e-9, with sorted dimensions."""
    out = []
    for value, dim in sorted(pairs):
        if out and value - out[-1][0] <= 1e-9:
            out[-1][1].append(dim)
        else:
            out.append((value, [dim]))
    return [(value, sorted(dims)) for value, dims in out]


_rng = random.Random(16)
EXACT_METRICS = [TorusMetric(1, Fraction(1, 10**k), 1) for k in range(1, 22)]
while len(EXACT_METRICS) < 21 + 10:
    _g11, _g22 = Fraction(_rng.randint(1, 9), _rng.randint(1, 7)), Fraction(_rng.randint(1, 9), _rng.randint(1, 7))
    _g12 = Fraction(_rng.randint(-6, 6), _rng.randint(1, 7))
    if _g12 * _g12 < _g11 * _g22:
        EXACT_METRICS.append(TorusMetric(_g11, _g12, _g22))


@pytest.mark.parametrize("metric", EXACT_METRICS, ids=str)
def test_rational_roots_match_exact_oracle(metric):
    cutoff = 12
    cone = torus_cone(metric, cutoff)
    spec = cone.components[0].kernel_source
    table = spec.kernel_table
    assert spec.spectrum.exact
    roots = _oracle_roots(metric, cutoff)
    # the d-table of the stability report: no two distinct roots merged
    d_window = Window(-3, 1)
    oracle_table = [(_float(rate), dim) for rate, dim in roots if _oracle_sum([(rate, 1)], d_window)]
    got, want = _clusters(table.roots_in(d_window)), _clusters(oracle_table)
    assert [dims for _, dims in got] == [dims for _, dims in want]
    assert [value for value, _ in got] == pytest.approx([value for value, _ in want], abs=1e-12)
    d_minus_one = _oracle_sum(roots, Window(-1, -1))
    assert d_minus_one == 2
    unit = Window(-1, 1, include_lo=False, include_hi=False)
    assert s_ind_minus(cone) == Fraction(d_minus_one, 2) + _oracle_sum(roots, unit) - 7
    assert symmetry_check(spec, d_window)
    # window ends exactly on the float of each root (an ulp to either side
    # of it) and on the rationals between near-coincident roots
    rng = random.Random(str(metric))
    cov_lo, cov_hi = table.rate_coverage
    ends = [Fraction(_float(rate)) for rate, _ in roots if cov_lo <= _float(rate) <= cov_hi]
    ends += [Fraction(k, 2) for k in range(-6, 3)]
    for end in ends:
        assert table.d_at(end) == _oracle_sum(roots, Window(end, end))
    for _ in range(60):
        lo, hi = sorted(rng.sample(ends, 2))
        window = Window(lo, hi, include_lo=rng.random() < 0.5, include_hi=rng.random() < 0.5)
        assert table.d_sum(window) == _oracle_sum(roots, window), window


def test_near_coincident_roots_stay_apart_through_the_cli():
    # g12 = 10^-k splits eigenvalue 2 into 2/(1 + 10^-k) and 2/(1 - 10^-k): their
    # F roots lie on either side of 1, so only one is in the d-table on [-3, 1]
    for k in (9, 12, 16, 17, 21):
        code, out = run(["stability", "--cone", f"torus:1,1/{10**k},1"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["s_ind_minus"] == "21", k
        near_one = [row for row in result["d_table"] if abs(row["lambda"] - 1) < 1e-6]
        assert [row["dimension"] for row in near_one] == [2], k
    # at 10^-17 both F roots near 1 print as the same float
    spec = torus_cone_spec(TorusMetric(1, Fraction(1, 10**17), 1), 12)
    near_one = [r for r in spec.kernel_table.roots if abs(r.value - 1) < 1e-6]
    assert [r.value for r in near_one] == [1.0, 1.0]
    assert len({r.key for r in near_one}) == 2


def test_exact_spectra_give_no_float_keys():
    cones = [HL, PLANE] + [torus_cone_spec(m, 24) for m in EXACT_METRICS[::4]]
    for cone in cones:
        assert cone.spectrum.exact
        assert all(r.key[0] in ("Q", "I") for r in cone.kernel_table.roots)


@pytest.mark.parametrize("g12", [Fraction(1, 3), Fraction(1, 10**17)], ids=str)
def test_union_merges_identical_irrational_roots(g12):
    single = torus_cone_spec(TorusMetric(Fraction(3, 2), g12, Fraction(5, 4)), 24)
    union = KernelTable.union([single.kernel_table, single.kernel_table])
    assert any(r.key[0] == "I" for r in single.kernel_table.roots)
    assert [(r.value, r.key) for r in union.roots] == [
        (r.value, r.key) for r in single.kernel_table.roots
    ]
    assert [r.total_dimension for r in union.roots] == [
        2 * r.total_dimension for r in single.kernel_table.roots
    ]


def test_float_metric_self_partnered_jacobi_root():
    # a float root within MERGE_TOL of -1/2 is its own Jacobi partner: one root
    # of dimension 2 gives multiplicity 2, not 4
    spectrum = torus_spectrum(TorusMetric(400000000000 / 300000000001, 0.0, 1.0), 6)
    cone = SLConeSpec(spectrum, LinkTopology(1, 2))
    assert not spectrum.exact
    js = jacobi_spectrum(cone, Window(-1, 0, include_lo=False, include_hi=False))
    (entry,) = [e for e in js.entries if abs(e.eigenvalue + 2.25) < 1e-9]
    (root,) = [r for r in cone.kernel_table.roots if abs(r.value + 0.5) < 1e-9]
    assert root.key[0] == "V" and root.total_dimension == 2
    assert entry.multiplicity == 2
    assert entry.contributing_rates == (root.value,)
