"""Kernel dimensions, indicial roots, Jacobi spectra and Morse indices."""

import json
from fractions import Fraction

import numpy as np
import pytest

from cone_spectra.errors import CutoffExceeded
from cone_spectra.indicial import (
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
from cone_spectra.presets import hl_cone_spec, plane_cone_spec
from cone_spectra.spectra import LinkTopology, Spectrum, TorusMetric, torus_spectrum

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
    assert root.exact == 0


def test_plane_open_window():
    table = indicial_roots(PLANE, Window(-1, 1, include_lo=False, include_hi=False))
    assert [(r.value, r.total_dimension) for r in table.roots] == [(0.0, 4)]


def test_empty_window():
    table = indicial_roots(HL, Window(0.1, 0.9))
    assert table.roots == ()


def test_window_endpoint_semantics():
    closed = indicial_roots(HL, Window(-1, 1))
    open_ = indicial_roots(HL, Window(-1, 1, include_lo=False, include_hi=False))
    assert closed.total_dimension() - open_.total_dimension() == 2 + 12


def test_merging_preserves_total_dimension():
    # sum over the window equals the sum of pointwise d_lambda at the roots
    table = indicial_roots(HL, Window(-3, 1))
    total = sum(d_lambda(HL, r.exact if r.exact is not None else r.value) for r in table.roots)
    assert table.total_dimension() == total


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
            LinkTopology(1, 2, (1,)),
        )
        assert symmetry_check(cone, Window(-3, 1))


def test_symmetry_negative_control():
    # a hand-made asymmetric table must fail the checker
    def root(value, dim):
        return IndicialRoot(
            value=float(value),
            branch_contributions=(BranchContribution("F", 0.0, dim),),
            total_dimension=dim,
            exact=Fraction(value),
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
    assert "rep >= -1/2" in js.convention


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
        Spectrum(((0, 1), (2, 6), (5, 4), (6, 6)), 12.0, True),
        LinkTopology(1, 2, (1,)),
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
        Spectrum(((0, 1), (7, 4)), 12.0, True), LinkTopology(1, 0, (0,))
    )
    assert morse_index(cone) == 1
    assert d_lambda(cone, 0) == 1


def test_morse_needs_cutoff_six():
    cone = SLConeSpec(
        Spectrum(((0, 1), (2, 6)), 4.0, True), LinkTopology(1, 2, (1,))
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
        Spectrum(((0, 1), (2, 6)), 2.0, True), LinkTopology(1, 2, (1,))
    )
    assert d_lambda(cone, Fraction(-1, 2)) == 0


def test_kernel_table_json():
    rows = json.loads(indicial_roots(HL, Window(-2, 1)).to_json())
    assert {"lambda": 0.0, "dimension": 7} == {
        "lambda": rows[2]["lambda"],
        "dimension": rows[2]["dimension"],
    }
    assert rows[1]["branches"][0]["branch"] == "HARMONIC_ONE_FORM"


def test_float_spectrum_path():
    # scaled metric -> float eigenvalues; d values agree with exact ones
    scale = 1.0000000001
    m = TorusMetric(2 / 3 * scale, 1 / 3 * scale, 2 / 3 * scale)
    cone = SLConeSpec(torus_spectrum(m, 12.0), LinkTopology(1, 2, (1,)))
    assert not cone.spectrum.exact
    table = indicial_roots(cone, Window(-2, 1))
    assert [r.total_dimension for r in table.roots] == [7, 2, 7, 12]
    assert symmetry_check(cone, Window(-3, 1))


def test_mult_zero_comes_from_topology():
    with pytest.raises(ValueError):
        SLConeSpec(Spectrum(((0, 2), (2, 6)), 8.0, True), LinkTopology(1, 2, (1,)))
