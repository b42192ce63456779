"""Analytic link spectra: flat tori and round spheres."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_spectra.cli import run
from cone_spectra.errors import NonPositiveDefinite, ValidationError
from cone_spectra.indicial import SLConeSpec
from cone_spectra.presets import torus_cone_spec
from cone_spectra.spectra import (
    MAX_LATTICE_POINTS,
    MAX_SPHERE_DEGREE,
    RELATIVE_TOL,
    LinkTopology,
    Spectrum,
    TorusMetric,
    _is_exact,
    clifford_torus_metric,
    sphere_spectrum,
    torus_spectrum,
)


def _clifford_link(t1, t2):
    z = np.array([np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2))])
    z /= math.sqrt(3.0)
    return np.concatenate([z.real, z.imag])


def test_clifford_metric_value():
    m = clifford_torus_metric()
    assert (m.g11, m.g12, m.g22) == (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
    assert m.det() == Fraction(1, 3)
    assert m.g11 == m.g22


def test_clifford_metric_finite_difference_oracle():
    # dot products of embedding tangents at random angles
    m = clifford_torus_metric()
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(5):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        d1 = (_clifford_link(t1 + h, t2) - _clifford_link(t1 - h, t2)) / (2 * h)
        d2 = (_clifford_link(t1, t2 + h) - _clifford_link(t1, t2 - h)) / (2 * h)
        assert abs(np.dot(d1, d1) - float(m.g11)) < 1e-8
        assert abs(np.dot(d1, d2) - float(m.g12)) < 1e-8
        assert abs(np.dot(d2, d2) - float(m.g22)) < 1e-8


def test_clifford_spectrum_cutoff_7():
    # brute-force lattice oracle: eigenvalues 2(m^2 - mn + n^2)
    counts = {}
    for mm in range(-5, 6):
        for nn in range(-5, 6):
            q = 2 * (mm * mm - mm * nn + nn * nn)
            if q <= 7:
                counts[q] = counts.get(q, 0) + 1
    expected = tuple(sorted(counts.items()))
    sp = torus_spectrum(clifford_torus_metric(), 7)
    assert sp.entries == expected == ((0, 1), (2, 6), (6, 6))
    assert sp.exact


def test_identity_metric_cutoff():
    sp = torus_spectrum(TorusMetric(1, 0, 1), 1.5)
    assert sp.entries == ((0, 1), (1, 4))


def test_torus_spectrum_starts_with_constants():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.5 * np.eye(2)
        sp = torus_spectrum(TorusMetric(g[0, 0], g[0, 1], g[1, 1]), 10.0)
        assert sp.entries[0] == (0, 1) or sp.entries[0][0] == 0.0


def test_torus_multiplicities_even_for_random_metrics():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.4 * np.eye(2)
        sp = torus_spectrum(TorusMetric(g[0, 0], g[0, 1], g[1, 1]), 25.0)
        for ev, mult in sp.entries:
            if float(ev) > 0:
                assert mult % 2 == 0


def test_float_torus_merges_rounding_splits():
    # one rounding away from the Clifford metric, the eigenvalue 38 of
    # multiplicity 12 comes out of the lattice as two float values
    s = 1 + 1e-10
    metric = TorusMetric(2 / 3 * s, 1 / 3 * s, 2 / 3 * s)
    sp = torus_spectrum(metric, 48)
    assert sp.multiplicity(38.0) == 12
    exact = torus_spectrum(clifford_torus_metric(), 48)
    assert [m for _, m in sp.entries] == [m for _, m in exact.entries]
    # (lambda + 2)(lambda + 1) = 38
    assert torus_cone_spec(metric, 48).kernel_table.d_at((-3 + math.sqrt(153)) / 2) == 12
    rng = np.random.default_rng(3)
    spectra = [sp]
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.4 * np.eye(2)
        spectra.append(torus_spectrum(TorusMetric(g[0, 0], g[0, 1], g[1, 1]), 40.0))
    for spectrum in spectra:
        values = [ev for ev, _ in spectrum.entries]
        assert all(b - a > RELATIVE_TOL * max(1.0, a, b) for a, b in zip(values, values[1:]))


def _sympy_torus_spectrum(g11, g12, g22, cutoff):
    """Exact (eigenvalue, multiplicity) pairs by sympy, independent of spectra.py.

    The Laplace-Beltrami operator of the flat metric g in angle coordinates is
    applied symbolically to exp(i(m t1 + n t2)); the lattice box comes from
    the least eigenvalue of g^-1, which bounds lambda below by mu |(m, n)|^2.
    """
    t1, t2 = sympy.symbols("t1 t2", real=True)
    m, n = sympy.symbols("m n", integer=True)
    g = sympy.Matrix([[g11, g12], [g12, g22]]).applyfunc(sympy.nsimplify)
    ginv = g.inv()
    coords = (t1, t2)
    f = sympy.exp(sympy.I * (m * t1 + n * t2))
    laplace = -sum(
        ginv[i, j] * sympy.diff(f, coords[i], coords[j]) for i in range(2) for j in range(2)
    )
    eigenvalue = sympy.expand(sympy.simplify(laplace / f))
    mu = min(ginv.eigenvals())
    box = int(sympy.floor(sympy.sqrt(sympy.nsimplify(cutoff) / mu)))
    counts = {}
    for i in range(-box, box + 1):
        for j in range(-box, box + 1):
            value = eigenvalue.subs({m: i, n: j})
            if value <= cutoff:
                counts[value] = counts.get(value, 0) + 1
    return [(Fraction(int(v.p), int(v.q)), counts[v]) for v in sorted(counts)]


@pytest.mark.parametrize(
    "metric, cutoff",
    [
        ((Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), 20),  # Clifford: integral
        ((Fraction(2, 5), Fraction(-1, 5), Fraction(3, 5)), 30),  # integral g^-1
        ((Fraction(3, 2), Fraction(1, 3), Fraction(5, 4)), 9),  # rational eigenvalues
    ],
)
def test_torus_spectrum_matches_sympy(metric, cutoff):
    spectrum = torus_spectrum(TorusMetric(*metric), cutoff)
    reference = _sympy_torus_spectrum(*metric, cutoff)
    # every exact metric has an exact spectrum: an int where the eigenvalue is
    # one, else a Fraction
    assert spectrum.exact
    assert list(spectrum.entries) == reference
    assert [type(ev) for ev, _ in spectrum.entries] == [
        int if ev.denominator == 1 else Fraction for ev, _ in reference
    ]


def _fraction_torus_spectrum(metric, cutoff):
    """Brute-force reference for exact metrics: q(m, n) in Fractions at every
    point of torus_spectrum's bounding box, compared with the cutoff as a Fraction."""
    m_max = math.isqrt(math.floor(float(cutoff) * float(metric.g11))) + 1
    n_max = math.isqrt(math.floor(float(cutoff) * float(metric.g22))) + 1
    a, b, c = metric.inverse()
    cut = Fraction(cutoff)
    counts = {}
    for m in range(-m_max, m_max + 1):
        for n in range(-n_max, n_max + 1):
            q = a * m * m + 2 * b * m * n + c * n * n
            if q <= cut:
                counts[q] = counts.get(q, 0) + 1
    entries = tuple(
        (int(q) if q.denominator == 1 else q, counts[q]) for q in sorted(counts)
    )
    return Spectrum(entries, float(cutoff))


_ratio = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _exact_metrics(draw):
    if draw(st.booleans()):  # integral inverse form [[A, B], [B, C]]
        A, B, C = draw(st.integers(1, 6)), draw(st.integers(-4, 4)), draw(st.integers(1, 6))
        det = A * C - B * B
        if det <= 0:
            B, det = 0, A * C
        return TorusMetric(Fraction(C, det), Fraction(-B, det), Fraction(A, det))
    g11 = draw(_ratio.filter(lambda x: x > 0))
    g22 = draw(_ratio.filter(lambda x: x > 0))
    g12 = draw(_ratio.filter(lambda x: x * x < g11 * g22))
    return TorusMetric(g11, g12, g22)


@settings(max_examples=80, deadline=None)
@given(_exact_metrics(), st.data())
def test_integer_count_matches_fraction_oracle(metric, data):
    a, b, c = metric.inverse()
    m, n = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
    on_lattice = a * m * m + 2 * b * m * n + c * n * n  # boundary value, must be counted
    cutoff = data.draw(
        st.one_of(
            st.integers(1, 40),
            st.builds(Fraction, st.integers(1, 400), st.integers(1, 12)),
            st.floats(0.05, 40.0),
            st.just(on_lattice).filter(lambda q: q > 0),
            # below a lattice value by less than a float can tell: not counted
            st.just(on_lattice - Fraction(1, 10**20)).filter(lambda q: q > 0),
        )
    )
    got, want = torus_spectrum(metric, cutoff), _fraction_torus_spectrum(metric, cutoff)
    assert got.entries == want.entries
    assert [type(ev) for ev, _ in got.entries] == [type(ev) for ev, _ in want.entries]
    assert got.exact and want.exact
    assert [float(ev) for ev, _ in got.entries] == [float(ev) for ev, _ in want.entries]
    if on_lattice == cutoff:
        assert got.entries[-1][0] == on_lattice


def test_lattice_budget():
    # (2 * (isqrt(cutoff) + 1) + 1)^2 points for the identity metric: 315^2 fit, 317^2 do not
    assert len(torus_spectrum(TorusMetric(1, 0, 1), 157**2 - 1).entries) > 0
    for metric, cutoff in (
        (TorusMetric(1, 0, 1), 157**2),
        (TorusMetric(1.0, 0.0, 1.0), 157**2),
        (TorusMetric(Fraction(3, 2), Fraction(1, 3), Fraction(5, 4)), Fraction(10**6, 7)),
        (clifford_torus_metric(), math.inf),
    ):
        with pytest.raises(ValidationError, match=str(MAX_LATTICE_POINTS)):
            torus_spectrum(metric, cutoff)


def test_weyl_law():
    rng = np.random.default_rng(3)
    metrics = [clifford_torus_metric()]
    for _ in range(3):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.5 * np.eye(2)
        metrics.append(TorusMetric(g[0, 0], g[0, 1], g[1, 1]))
    for m in metrics:
        for bound in (50.0, 90.0):
            sp = torus_spectrum(m, bound)
            count = sum(mult for ev, mult in sp.entries if float(ev) < bound)
            weyl = m.area() / (4 * math.pi) * bound
            assert abs(count - weyl) < 0.25 * weyl


def test_non_spd_metric_rejected():
    with pytest.raises(NonPositiveDefinite):
        TorusMetric(1, 2, 1)
    with pytest.raises(NonPositiveDefinite):
        TorusMetric(-1, 0, 1)


def test_sphere_examples():
    assert sphere_spectrum(6).entries == ((0, 1), (2, 3), (6, 5))
    assert sphere_spectrum(0.5).entries == ((0, 1),)
    assert sphere_spectrum(20).entries[-1] == (20, 9)


def test_sphere_degree_bound():
    # the top degree comes from a closed form, checked at and next to l(l+1)
    for ell in (1, 2, 17, 999):
        top = ell * (ell + 1)
        assert sphere_spectrum(top).entries[-1] == (top, 2 * ell + 1)
        assert sphere_spectrum(math.nextafter(top, 0)).entries[-1][0] < top
    last = MAX_SPHERE_DEGREE * (MAX_SPHERE_DEGREE + 1)
    assert len(sphere_spectrum(last).entries) == MAX_SPHERE_DEGREE + 1
    for cutoff in (last + 2 * MAX_SPHERE_DEGREE + 2, 1e300, math.inf):
        with pytest.raises(ValidationError, match=str(MAX_SPHERE_DEGREE)):
            sphere_spectrum(cutoff)


def _linear_multiplicity(spectrum, value, tol=1e-9):
    """The lookup as a scan over every entry, first match wins."""
    if value < 0:
        return 0
    for ev, mult in spectrum.entries:
        if spectrum.exact and isinstance(value, (int, Fraction)):
            if ev == value:
                return mult
        elif abs(float(value) - float(ev)) <= tol * max(1.0, abs(float(value))):
            return mult
    return 0


def test_multiplicity_matches_linear_scan():
    rng = np.random.default_rng(5)
    spectra = [
        sphere_spectrum(90),
        torus_spectrum(TorusMetric(Fraction(3, 2), Fraction(1, 3), Fraction(5, 4)), 30),
        # neighbours closer than the tolerance: the lowest match wins
        Spectrum(((0.0, 1), (1.0, 2), (1.0 + 5e-10, 3), (1.0 + 1.5e-9, 4), (2.0, 5)), 3.0),
    ]
    for _ in range(4):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.4 * np.eye(2)
        spectra.append(torus_spectrum(TorusMetric(g[0, 0], g[0, 1], g[1, 1]), 30.0))
    for sp in spectra:
        queries = [-1, 0, 0.0, Fraction(7, 3), *rng.uniform(0.0, 40.0, 30)]
        for ev, _ in sp.entries:
            fe = float(ev)
            step = 1e-9 * max(1.0, fe)
            queries += [ev, fe, fe + step, fe - step, fe + 2 * step, fe - 0.99 * step,
                        math.nextafter(fe + step, math.inf), math.nextafter(fe - step, -math.inf)]
        for q in queries:
            assert sp.multiplicity(q) == _linear_multiplicity(sp, q), (sp.entries[:3], q)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(((0, 1), (2, 0)), 5.0)  # zero multiplicity
    with pytest.raises(ValueError):
        Spectrum(((0, 1), (2, 3), (2, 1)), 5.0)  # not increasing
    with pytest.raises(ValueError):
        Spectrum(((1, 1),), 5.0)  # missing eigenvalue 0
    with pytest.raises(ValueError):
        Spectrum((), 1.0)  # no entries, so no eigenvalue 0


def _increasing(entries):
    return all(b > a for (a, _), (b, _) in zip(entries, entries[1:]))


def test_spectrum_order_check_matches_comparisons():
    # exact entries are compared as cross-multiplied integers: the same verdicts
    # and message as comparing the numbers, on equal, decreasing and mixed entries
    fixed = [
        ((0, 1), (2, 1), (Fraction(2), 3)),  # 2 then Fraction(2): equal
        ((0, 1), (Fraction(5, 2), 1), (2, 1)),  # decreasing
        ((0, 1), (Fraction(4, 6), 1), (Fraction(2, 3), 1)),  # equal, one not in lowest terms
        ((0, 1), (Fraction(-1, 3), 1)),  # negative
        ((0, 1), (Fraction(1, 3), 1), (0.5, 2), (Fraction(1, 2), 1)),  # float then its Fraction
        ((0, 1), (1.0, 1), (Fraction(3, 2), 1), (2, 1)),  # a float entry among exact ones
        ((0, 1), (math.nan, 1)),
    ]
    rng = random.Random(24)
    seeded = []
    for _ in range(300):
        values = [0] + [rng.choice((Fraction(rng.randint(-3, 30), rng.randint(1, 6)),
                                    rng.randint(0, 6), rng.randint(0, 12) / 2))
                        for _ in range(rng.randint(1, 6))]
        seeded.append(tuple((v, 1) for v in values))
    for entries in fixed + seeded:
        if _increasing(entries):
            assert Spectrum(entries, 40.0).entries == entries
        else:
            with pytest.raises(ValueError, match="^eigenvalues must be strictly increasing$"):
                Spectrum(entries, 40.0)
    assert sum(map(_increasing, seeded)) not in (0, len(seeded))


def test_exactness_is_read_from_the_entries():
    # one float entry makes a spectrum inexact, and its table takes float keys
    mixed = Spectrum(((0, 1), (2.0, 6), (6, 6)), 12.0)
    floats = Spectrum(((0.0, 1), (2.0, 6), (6.0, 6)), 12.0)
    assert not mixed.exact and not floats.exact
    table = SLConeSpec(mixed, LinkTopology(1, 2)).kernel_table
    assert table.roots == SLConeSpec(floats, LinkTopology(1, 2)).kernel_table.roots
    assert {r.key[0] for r in table.roots} == {"V"}
    # ints and Fractions only: exact, with exact root keys
    rational = Spectrum(((0, 1), (2, 6), (Fraction(5, 2), 2), (6, 6)), 12.0)
    assert rational.exact
    assert {r.key[0] for r in SLConeSpec(rational, LinkTopology(1, 2)).kernel_table.roots} == {"Q", "I"}


def test_every_spectrum_source_is_exact_when_its_entries_are():
    from cone_spectra.mesh import icosphere, mesh_spectrum

    spectra = [
        sphere_spectrum(12),
        torus_spectrum(clifford_torus_metric(), 12),
        torus_spectrum(TorusMetric(1.5, 1 / 3, 1.25), 12),
        mesh_spectrum(icosphere(1), 9),
    ]
    assert [s.exact for s in spectra] == [True, True, False, False]
    for s in spectra:
        assert s.exact == all(_is_exact(ev) for ev, _ in s.entries)


def test_spectrum_json():
    # the CLI's rows: float eigenvalue, integer multiplicity
    rows = json.loads(run(["spectrum", "sphere", "--cutoff", "6"])[1])["result"]["entries"]
    assert rows[1] == {"eigenvalue": 2.0, "multiplicity": 3}


def test_topology_validation():
    LinkTopology(1, 2)
    with pytest.raises(ValueError):
        LinkTopology(-1, 0)  # negative b0
    with pytest.raises(ValueError):
        LinkTopology(1, -2)  # negative b1
