"""Stability indices, rigidity and the lower-bound certificates."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cone_spectra import fredholm
from cone_spectra.errors import (
    CutoffExceeded,
    MissingStratumData,
    MissingSymmetryData,
    NonPositiveArea,
    RateOnWall,
)
from cone_spectra.fredholm import (
    AC,
    EndSpec,
    OperatorSpec,
    chamber,
    index,
    wall_crossing,
    with_rates,
)
from cone_spectra.indicial import (
    MERGE_TOL,
    SLConeSpec,
    Window,
    d_lambda,
    indicial_roots,
    jacobi_spectrum,
    morse_index,
    symmetry_check,
)
from cone_spectra.presets import hl_cone, hl_cone_spec, plane_cone, plane_pair_cone, torus_cone
from cone_spectra.spectra import LinkTopology, Spectrum, TorusMetric
from cone_spectra.stability import (
    ConeComponent,
    ConeData,
    DLambdaTable,
    is_rigid,
    null_torsion_bound,
    s_ind,
    s_ind_minus,
    s_ind_plus,
    sl_lower_bound,
    stability_report,
)

HL = hl_cone()
PAIR = plane_pair_cone()
PLANE = plane_cone()


def _hl_with_symmetry(dim):
    """The HL cone with the G2 symmetry dimension ``dim`` (None: unknown)."""
    return ConeData((ConeComponent(hl_cone_spec(), symmetry_group_dim=dim),))


def test_s_ind_minus_values():
    assert s_ind_minus(HL) == 1  # 2/2 + 7 - 7
    assert s_ind_minus(PAIR) == 1  # 0 + 8 - 7
    assert s_ind_minus(PLANE) == -3  # the excluded 3-plane: 4 - 7


def test_s_ind_plus_values():
    assert s_ind_plus(HL) == 1  # 1 + 19 - 12 - 7
    assert s_ind_plus(PAIR) == 1  # 0 + 24 - 16 - 7


def test_s_ind_plus_full_symmetry_reduces_to_bare_sum():
    cone = _hl_with_symmetry(14)
    assert s_ind_plus(cone) == Fraction(2, 2) + 19 - 7


def test_rigidity():
    assert is_rigid(HL)  # 12 = 14 - 2
    assert is_rigid(PAIR)  # 16 = 2 * (14 - 6)
    assert not is_rigid(_hl_with_symmetry(3))  # 12 != 11


def test_s_ind_rigid_default():
    assert s_ind(HL) == 1
    assert s_ind(PAIR) == 1
    assert s_ind(HL) == s_ind_plus(HL) == s_ind_minus(HL)


def test_missing_data_errors():
    bare = _hl_with_symmetry(None)
    with pytest.raises(MissingSymmetryData):
        s_ind_plus(bare)
    with pytest.raises(MissingStratumData):
        s_ind(bare)
    # non-rigid without stratum data cannot fall back to the orbit default
    with pytest.raises(MissingStratumData):
        s_ind(_hl_with_symmetry(3))


def test_component_invariants():
    with pytest.raises(ValueError):
        ConeComponent(HL.components[0].kernel_source, symmetry_group_dim=15)
    with pytest.raises(ValueError):
        ConeComponent(
            HL.components[0].kernel_source, symmetry_group_dim=2, stratum_dim=11
        )


def _table_cone(rows, sym=None, stratum=None):
    table = DLambdaTable(tuple(rows), Window(-3, 3))
    return ConeData((ConeComponent(table, sym, stratum),))


def test_ordering_over_random_tables():
    rng = np.random.default_rng(13)
    for _ in range(25):
        d_m1 = 2 * int(rng.integers(0, 3))
        d_small = int(rng.integers(0, 9))
        d_one = int(rng.integers(1, 15))
        sym = int(rng.integers(max(0, 14 - d_one), 15))
        # stratum between the orbit dimension and d_1
        stratum = int(rng.integers(14 - sym, d_one + 1))
        rows = [(-1, d_m1), (Fraction(-1, 3), d_small), (1, d_one)]
        cone = _table_cone(rows, sym=sym, stratum=stratum)
        lo, mid, hi = s_ind_minus(cone), s_ind(cone), s_ind_plus(cone)
        assert lo <= mid <= hi


def test_half_integer_indices_reported_exactly():
    cone = _table_cone([(-1, 3), (0, 7)])
    assert s_ind_minus(cone) == Fraction(3, 2) + 7 - 7


def test_additivity_over_components():
    single = PAIR.components[0]
    one, two = ConeData((single,)).kernel_table, PAIR.kernel_table
    assert one.d_at(1) * 2 == two.d_at(1)
    window = Window(-1, 1, include_lo=False, include_hi=True)
    assert one.d_sum(window) * 2 == two.d_sum(window)


def test_table_cutoff_enforced():
    cone = _table_cone([(0, 7)])
    with pytest.raises(CutoffExceeded):
        cone.kernel_table.d_at(3.5)


def test_exact_rates_compare_exactly():
    third, tiny = Fraction(1, 3), Fraction(1, 10**20)
    table = _table_cone([(third, 3), (third + tiny, 4)]).kernel_table
    assert table.d_at(third) == 3 and table.d_at(third + tiny) == 4
    assert table.d_sum(Window(third, 1, include_lo=False)) == 4
    assert table.d_sum(Window(0, third)) == 3


def test_null_torsion_bound():
    nt = null_torsion_bound(24 * math.pi)
    assert abs(nt.bound - 5.0) < 1e-12
    assert abs(nt.b - 6.0) < 1e-12
    assert nt.meets_minimal_area
    assert abs(null_torsion_bound(28 * math.pi).bound - 7.0) < 1e-12
    low = null_torsion_bound(4 * math.pi)
    assert abs(low.bound + 5.0) < 1e-12
    assert not low.meets_minimal_area
    with pytest.raises(NonPositiveArea):
        null_torsion_bound(0.0)


def test_sl_lower_bound():
    assert sl_lower_bound(LinkTopology(1, 2)) == 1
    assert sl_lower_bound(LinkTopology(2, 0)) == 1
    assert sl_lower_bound(LinkTopology(1, 4)) == 2


def test_sl_lower_bound_against_s_ind_minus():
    # eligible cones: no link eigenvalue in (0, 2), eigenvalue-2 mult >= 6
    hl_spec = HL.components[0].kernel_source
    assert hl_spec.spectrum.multiplicity(2) >= 6
    assert s_ind_minus(HL) >= sl_lower_bound(hl_spec.topology)
    # synthetic genus-2 link with the same first-eigenvalue structure
    from cone_spectra.indicial import SLConeSpec
    from cone_spectra.spectra import Spectrum

    spec = SLConeSpec(
        Spectrum(((0, 1), (2, 6), (5, 2), (6, 6), (8, 4)), 8.0),
        LinkTopology(1, 4),
    )
    cone = ConeData((ConeComponent(spec),))
    assert s_ind_minus(cone) >= sl_lower_bound(spec.topology) == 2


def test_stability_report_shape():
    report = stability_report(HL)
    assert report["s_ind"] == "1"
    assert report["s_ind_minus"] == "1"
    assert report["rigid"] is True
    assert {"lambda": 0.0, "dimension": 7} in report["d_table"]
    assert "note" not in report
    assert "3-plane" in stability_report(PLANE)["note"]


def test_report_without_symmetry_data():
    report = stability_report(_hl_with_symmetry(None))
    assert report["s_ind_plus"] is None
    assert report["rigid"] is None


def _oracle_d(component, lam):
    """d_lambda of one component straight from its kernel source."""
    source = component.kernel_source
    if isinstance(source, SLConeSpec):
        return d_lambda(source, lam)
    exact = (int, Fraction)
    return sum(
        d
        for row_lam, d in source.rows
        if (
            Fraction(row_lam) == Fraction(lam)
            if isinstance(row_lam, exact) and isinstance(lam, exact)
            else abs(float(row_lam) - float(lam)) <= 1e-9
        )
    )


def _oracle_sum(component, window):
    """sum of d_lambda over the window, from candidate roots of the raw spectrum."""
    source = component.kernel_source
    if isinstance(source, SLConeSpec):
        candidates = {Fraction(-1)}
        for i, (delta, _) in enumerate(source.spectrum.entries):
            delta = delta if i else 0  # the first entry is eigenvalue 0 by decree
            disc = 1 + 4 * delta
            root = math.isqrt(disc) if isinstance(delta, int) else None
            for p in (-1, -3):
                for s in (1, -1):
                    if root is not None and root * root == disc:
                        candidates.add(Fraction(p + s * root, 2))
                    else:
                        candidates.add((p + s * math.sqrt(disc)) / 2)
        rates = sorted(candidates)
        # float spectra give the same rate from two branches up to rounding
        rates = [lam for i, lam in enumerate(rates) if i == 0 or lam - rates[i - 1] > 1e-9]
        return sum(
            d_lambda(source, lam)
            for lam in rates
            if window.contains(lam)
        )
    return sum(
        d
        for lam, d in source.rows
        if window.contains(lam)
    )


TABLE = DLambdaTable(
    (
        (-1, 2),
        (Fraction(-7, 3), 5),
        (Fraction(-1, 3), 3),
        (0.25, 1),
        (0.25, 2),
        (Fraction(3, 4), 0),
        (1, 12),
    ),
    Window(-3, 3),
)
DIFFERENTIAL_CONES = {
    "hl": hl_cone(),
    "plane": PLANE,
    "plane-pair": PAIR,
    "torus-integral": torus_cone(TorusMetric(Fraction(12, 23), Fraction(-2, 23), Fraction(8, 23)), 24),
    "torus-rational": torus_cone(TorusMetric(Fraction(3, 2), Fraction(1, 3), Fraction(5, 4)), 24),
    # its float twin: float eigenvalues, "V" keys and MERGE_TOL
    "torus-rational-float": torus_cone(TorusMetric(1.5, 1 / 3, 1.25), 24),
    "table": ConeData((ConeComponent(TABLE),)),
    "hl+table": ConeData((HL.components[0], ConeComponent(TABLE))),
}
# float links whose zero eigenvalue carries noise, as a mesh spectrum's does
for _zero in (1e-10, 1e-7):
    DIFFERENTIAL_CONES[f"noisy-zero-{_zero:g}"] = ConeData((ConeComponent(SLConeSpec(
        Spectrum(((_zero, 1), (2.0, 6)), 6.0), LinkTopology(1, 2)
    )),))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONES))
def test_root_table_matches_kernel_sources(name):
    cone = DIFFERENTIAL_CONES[name]
    if name.startswith("torus-rational"):
        exact = name == "torus-rational"
        assert cone.components[0].kernel_source.spectrum.exact == exact
        kinds = {r.key[0] for r in cone.kernel_table.roots}
        assert kinds == ({"Q", "I"} if exact else {"V"})
    table = cone.kernel_table
    lo, hi = table.rate_coverage
    roots = table.roots_in(Window(lo, hi))
    assert roots and [lam for lam, _ in roots] == sorted({lam for lam, _ in roots})
    rng = random.Random(len(name))
    between = [rng.uniform(lo, hi) for _ in range(60)]
    quarters = [Fraction(k, 4) for k in range(math.ceil(4 * lo), math.floor(4 * hi) + 1)]
    # float rates on either side of MERGE_TOL around -1, where d is b1 or nothing
    near_minus_one = [-1.0 - 1e-10, -1.0 + 1e-10, -1.0 - 2e-9, -1.0 + 2e-9]
    for lam in [r for r, _ in roots] + between + quarters + near_minus_one:
        assert table.d_at(lam) == sum(_oracle_d(c, lam) for c in cone.components), lam
    for lam, d in roots:
        assert d == table.d_at(lam) > 0
    full = Window(lo, hi)
    assert table.d_sum(full) == sum(d for _, d in roots)
    assert table.d_sum(full) == sum(_oracle_sum(c, full) for c in cone.components)
    for _ in range(20):
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
        window = Window(a, b, include_lo=rng.random() < 0.5, include_hi=rng.random() < 0.5)
        assert table.d_sum(window) == sum(_oracle_sum(c, window) for c in cone.components)


def _scanned_chamber(values, coverage, rate, span):
    """The chamber around ``rate`` from a scan of every root, or the error
    class an end at ``rate`` raises."""
    if not coverage[0] <= rate <= coverage[1]:
        return CutoffExceeded
    if any(abs(v - rate) <= MERGE_TOL for v in values):
        return RateOnWall
    lo = max([rate - span, coverage[0]] + [v for v in values if v < rate])
    hi = min([rate + span, coverage[1]] + [v for v in values if v > rate])
    return lo, hi


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONES))
def test_wall_and_chamber_lookups_match_a_scan(name, monkeypatch):
    cone = DIFFERENTIAL_CONES[name]
    values = [r.value for r in cone.kernel_table.roots]
    cov_lo, cov_hi = cone.kernel_table.rate_coverage
    rng = random.Random(f"lookups-{name}")
    rates = [rng.uniform(cov_lo, cov_hi) for _ in range(40)]
    # 1e-10 and 9e-10 from a root are on its wall, 2e-9 is off it
    rates += [v + d for v in values for d in (-2e-9, -9e-10, -1e-10, 1e-10, 9e-10, 2e-9)]
    # chambers that end at the coverage, below the first root and above the last
    first = min(v for v in values if v > cov_lo)
    last = max(v for v in values if v < cov_hi)
    rates += [(cov_lo + first) / 2, (last + cov_hi) / 2, cov_lo, cov_hi]
    rates += [cov_lo - 1e-3, cov_hi + 1e-3]
    clipped_by = set()
    for rate in rates:
        for span in (4.0, 0.05):
            # the default span, and one narrow enough that it clips chambers
            monkeypatch.setattr(fredholm, "CHAMBER_SPAN", span)
            expected = _scanned_chamber(values, (cov_lo, cov_hi), rate, span)
            if not isinstance(expected, tuple):
                with pytest.raises(expected):
                    EndSpec(cone, rate)
                continue
            EndSpec(cone, rate)
            lo, hi = chamber(cone, rate)
            assert (lo, hi) == expected, (rate, span)
            ends = {lo, hi}
            if ends & set(values):
                clipped_by.add("root")
            if ends & {rate - span, rate + span}:
                clipped_by.add("span")
            if ends & {cov_lo, cov_hi}:
                clipped_by.add("coverage")
    assert clipped_by == {"root", "span", "coverage"}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONES))
def test_window_sums_match_a_contains_scan(name):
    table = DIFFERENTIAL_CONES[name].kernel_table
    cov_lo, cov_hi = table.rate_coverage
    rng = random.Random(f"windows-{name}")
    # endpoints on roots (as floats and as exact rates), exact rationals and floats
    ends = [r.value for r in table.roots] + [r.key[1] for r in table.roots if r.key[0] == "Q"]
    ends += [Fraction(rng.randint(-30, 30), rng.choice((2, 3, 4, 7))) for _ in range(30)]
    ends += [rng.uniform(cov_lo, cov_hi) for _ in range(30)]
    ends = [e for e in ends if cov_lo <= e <= cov_hi]
    for _ in range(300):
        lo, hi = sorted(rng.sample(ends, 2), key=float)
        window = Window(lo, hi, include_lo=rng.random() < 0.5, include_hi=rng.random() < 0.5)
        inside = [r for r in table.roots if window.contains(r.key[1] if r.key[0] == "Q" else r.value)]
        assert table.roots_in(window) == [(r.value, r.total_dimension) for r in inside], window
        assert table.d_sum(window) == sum(r.total_dimension for r in inside), window


# the float link of tests/test_kernel_queries.py: eigenvalue 2 + e puts a root
# within MERGE_TOL of 1, on the end of the s-ind and Morse sums
FLOAT_NEAR_ONE = {
    f"float-near-one-{e:g}": SLConeSpec(
        Spectrum(((0.0, 1), (2.0 + e, 6), (6.0, 6), (8.0, 6)), 8.0), LinkTopology(1, 2)
    )
    for e in (0.0, 4e-10, -4e-10, 1e-9, -1e-9)
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONES) + sorted(FLOAT_NEAR_ONE))
def test_index_sums_match_their_windowed_forms(name):
    # s-ind-, s-ind and s-ind+ read d_minus_one, d_open(-1, 1) and d_at(1), and the
    # Morse index d_open and d_at(0): each equals its d_sum over (-1, 1), (-1, 1] or [0, 1)
    if name in FLOAT_NEAR_ONE:
        cone = ConeData((ConeComponent(FLOAT_NEAR_ONE[name], symmetry_group_dim=2),))
    else:
        cone = DIFFERENTIAL_CONES[name]
    table = cone.kernel_table

    def windowed(include_hi):
        window = Window(-1, 1, include_lo=False, include_hi=include_hi)
        return Fraction(table.d_minus_one + 2 * (table.d_sum(window) - 7), 2)

    assert s_ind_minus(cone) == windowed(False)
    bare = ConeData(tuple(replace(c, symmetry_group_dim=14, stratum_dim=0) for c in cone.components))
    assert s_ind_plus(bare) == s_ind(bare) == windowed(True)
    dims = [c.symmetry_group_dim for c in cone.components]
    if None not in dims:
        assert s_ind_plus(cone) == windowed(True) - sum(14 - d for d in dims)
    for spec in [c.kernel_source for c in cone.components]:
        if isinstance(spec, SLConeSpec):
            t = spec.kernel_table
            zero_to_one = Window(0, 1, include_lo=True, include_hi=False)
            assert morse_index(spec) == spec.topology.b1 + 2 * t.d_open(-1, 0) + t.d_sum(zero_to_one)


def test_nan_rate_is_not_covered():
    with pytest.raises(CutoffExceeded):
        HL.kernel_table.d_at(float("nan"))
    with pytest.raises(CutoffExceeded):
        HL.kernel_table.at(float("nan"))


def test_components_without_common_coverage():
    below = ConeComponent(DLambdaTable(((-2.5, 1),), Window(-3, -2)))
    above = ConeComponent(DLambdaTable(((0.5, 1),), Window(0, 1)))
    with pytest.raises(CutoffExceeded):
        ConeData((below, above)).kernel_table


def test_index_sweep_builds_roots_once(monkeypatch):
    builds = []
    build = SLConeSpec.kernel_table.func

    def counted(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(SLConeSpec.kernel_table, "func", counted)
    cone = hl_cone()
    spec = cone.components[0].kernel_source
    assert [r.value for r in indicial_roots(spec, Window(-2, 1)).roots] == [-2, -1, 0, 1]
    assert symmetry_check(spec, Window(-3, 1))
    assert morse_index(spec) == 9
    assert len(jacobi_spectrum(spec, Window(-2, 1)).entries) == 2
    rng = random.Random(16)
    rates = [rng.uniform(-3.9, 1.9) for _ in range(16)]
    op = OperatorSpec(AC, (EndSpec(cone, rates[0]),))
    indices = [index(with_rates(op, r)) for r in rates]
    jumps = [wall_crossing(op, a, b) for a, b in zip(rates, rates[1:])]
    assert jumps == [j - i for i, j in zip(indices, indices[1:])]
    for r in rates:
        chamber(cone, r)
    stability_report(cone)
    assert builds == [spec]
