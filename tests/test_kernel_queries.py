"""KernelTable queries against a scan over every root.

The tables answer window and point queries from one sorted rate index: the
root values as a list and the prefix sums of their dimensions.  The oracles
below are the scans the tables used before that index, kept verbatim: a
bisection by root value, then a filter over every root in the slice.  Both
must give the same answers, and raise CutoffExceeded for the same inputs, on
exact torus cones (Q and I keys), the presets, float spectra, user d-tables
and empty tables.

The Fredholm index, wall crossings and Morse index read open-interval sums
from the same index; they are checked against sums over every root placed by
its key, and the d-symmetry check, which pairs root i with root n - 1 - i,
against the mirror-by-mirror lookup it short-cuts.
"""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace

import pytest

from cone_spectra.errors import CutoffExceeded, NonIntegerIndex, RateOnWall
from cone_spectra.fredholm import (
    AC,
    CS,
    EndSpec,
    OperatorSpec,
    crossed_roots,
    index,
    wall_crossing,
    with_rates,
)
from cone_spectra.indicial import (
    F_BRANCH,
    H_BRANCH,
    HARMONIC_ONE_FORM,
    MERGE_TOL,
    BranchContribution,
    IndicialRoot,
    KernelTable,
    SLConeSpec,
    Window,
    _key_value,
    _paired,
    _rate_coverage,
    _rate_key,
    _reflect,
    _same_rate,
    merge_roots,
    morse_index,
    table_symmetry,
)
from cone_spectra.presets import PRESETS, torus_cone_spec
from cone_spectra.spectra import LinkTopology, Spectrum, TorusMetric, torus_spectrum
from cone_spectra.stability import ConeComponent, ConeData, DLambdaTable, stability_report

BAND = 2 * MERGE_TOL
_value = attrgetter("value")


# ---------------------------------------------------------------------------
# the scans: every root of a bisected slice, filtered one by one
# ---------------------------------------------------------------------------

def scan_side(value, key, bound):
    exact = isinstance(bound, (int, Fraction)) and not isinstance(bound, bool)
    if exact and key[0] == "Q":
        return (key[1] > bound) - (key[1] < bound)
    if exact and key[0] == "I":
        _, p, s, k, d = key
        t = (2 * bound - p) * d
        return s if s * t <= 0 or d * (d + 4 * k) > t * t else -s
    diff = value - float(bound)
    return (diff > MERGE_TOL) - (diff < -MERGE_TOL)


def scan_holds(window, value, key):
    lo = scan_side(value, key, window.lo)
    if lo < 0 or (lo == 0 and not window.include_lo):
        return False
    hi = scan_side(value, key, window.hi)
    return hi < 0 or (hi == 0 and window.include_hi)


def scan_covered(table, lo, hi):
    cov_lo, cov_hi = table.rate_coverage
    if not (cov_lo <= lo and hi <= cov_hi):
        raise CutoffExceeded("not covered")


def scan_between(table, lo, hi):
    roots = table.roots
    return roots[bisect_left(roots, lo, key=_value) : bisect_right(roots, hi, key=_value)]


def scan_at(table, rate):
    key = rate if isinstance(rate, tuple) else _rate_key(rate)
    value = _key_value(key)
    scan_covered(table, value, value)
    near = scan_between(table, value - BAND, value + BAND)
    return tuple(r for r in near if _same_rate(r.value, r.key, value, key))


def scan_inside(table, window):
    lo, hi = float(window.lo), float(window.hi)
    scan_covered(table, lo, hi)
    roots = scan_between(table, lo - BAND, hi + BAND)
    return tuple(
        r for r in roots if lo + BAND < r.value < hi - BAND or scan_holds(window, r.value, r.key)
    )


def scan_d_at(table, rate):
    return sum(r.total_dimension for r in scan_at(table, rate))


def scan_symmetry(table):
    return all(scan_d_at(table, _reflect(r.key, -2)) == r.total_dimension for r in table.roots)


def scan_build(spec):
    """A cone's table as built before the sorted index: one branch tuple per root."""
    exact = spec.spectrum.exact
    cov_lo, cov_hi = _rate_coverage(spec.spectrum.cutoff)
    parts, irrational = [], []
    for i, (delta, m) in enumerate(spec.spectrum.entries):
        delta = delta if i else 0
        dval = float(delta)
        root = math.sqrt(1.0 + 4.0 * dval)
        if exact:
            k, d = delta.numerator, delta.denominator
            r = math.isqrt(n := d * (d + 4 * k))
        for p, branch in ((-1, F_BRANCH), (-3, H_BRANCH)):
            for s in (+1, -1):
                if not i and p + s == -2:
                    continue
                value = (p + s * root) / 2.0
                if not cov_lo <= value <= cov_hi:
                    continue
                branches = (BranchContribution(branch, dval, m),)
                if not exact:
                    parts.append((value, ("V", value), m, branches))
                elif r * r == n:
                    parts.append((value, ("Q", Fraction(p * d + s * r, 2 * d)), m, branches))
                else:
                    irrational.append(IndicialRoot(value, branches, m, ("I", p, s, k, d)))
    if spec.topology.b1 > 0 and cov_lo <= -1.0 <= cov_hi:
        harmonic = BranchContribution(HARMONIC_ONE_FORM, 0.0, spec.topology.b1)
        parts.append((-1.0, _rate_key(-1 if exact else -1.0), spec.topology.b1, (harmonic,)))
    roots = sorted(irrational + list(merge_roots(parts)), key=_value)
    return KernelTable(Window(cov_lo, cov_hi), tuple(roots))


def outcome(query, *args):
    try:
        return query(*args)
    except CutoffExceeded:
        return CutoffExceeded


# ---------------------------------------------------------------------------
# the differential cones
# ---------------------------------------------------------------------------

def _integral_metric(rng):
    """A metric whose inverse form has integer values (integer eigenvalues)."""
    while True:
        a, c, b2 = rng.randint(1, 5), rng.randint(1, 5), rng.randint(-4, 4)
        b = Fraction(b2, 2)
        if b * b < a * c:
            det = a * c - b * b
            return TorusMetric(c / det, -b / det, a / det)


def _rational_metric(rng):
    while True:
        g11 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        g22 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        g12 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if g12 * g12 < g11 * g22:
            return TorusMetric(g11, g12, g22)


def _float_metric(rng):
    while True:
        g11, g22, g12 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)
        if g12 * g12 < 0.9 * g11 * g22:
            return TorusMetric(g11, g12, g22)


def _specs():
    rng = random.Random(2317)
    specs = {}
    for cutoff in (12, 24, 48):
        for n in range(2):
            specs[f"torus-int@{cutoff}/{n}"] = torus_cone_spec(_integral_metric(rng), cutoff)
            specs[f"torus-rat@{cutoff}/{n}"] = torus_cone_spec(_rational_metric(rng), cutoff)
    for n in range(2):
        specs[f"torus-float@24/{n}"] = torus_cone_spec(_float_metric(rng), 24)
    # eigenvalues that sit 1e-10 off the integer ones: V roots within MERGE_TOL of exact rates
    scale = 1.0000000001
    near = TorusMetric(2 / 3 * scale, 1 / 3 * scale, 2 / 3 * scale)
    specs["torus-float-near-exact@12"] = SLConeSpec(torus_spectrum(near, 12.0), LinkTopology(1, 2))
    spectrum = Spectrum(((0.0, 1), (2.0, 2), (2.0 + 1.5e-9, 1), (6.0 - 4e-9, 3)), 8.0)
    specs["float-close-pairs@8"] = SLConeSpec(spectrum, LinkTopology(1, 2))
    # rational roots whose float lies an ulp off the exact rate: 4/9 gives 1/3 as
    # 0.33333333333333337 and 28/9 gives it as 0.33333333333333326
    ninths = [Fraction(k, 9) for k in (4, 10, 28, 40, 70, 88)]
    spectrum = Spectrum(((0, 1), *((q, 1 + i % 3) for i, q in enumerate(ninths))), 10.0)
    specs["rational-off-by-an-ulp@10"] = SLConeSpec(spectrum, LinkTopology(1, 2))
    return specs


SPECS = _specs()


def _tables():
    tables = {name: spec.kernel_table for name, spec in SPECS.items()}
    for name, (build, _provenance) in PRESETS.items():
        for cutoff in (12, 30):
            tables[f"{name}@{cutoff}"] = build(cutoff).kernel_table
    coverage = Window(Fraction(-4), Fraction(2))
    rows = [(Fraction(-4), 1), (Fraction(-1), 2), (Fraction(-3, 4), 3), (Fraction(-5, 4), 3),
            (Fraction(2), 5), (Fraction(1), 7), (-1, 1), (Fraction(1, 2), 0), (0.25, 2)]
    tables["table-on-ends"] = DLambdaTable(tuple(rows), coverage).kernel_table
    rng = random.Random(52)
    for n in range(3):
        rows = [(Fraction(k, 4), rng.randint(0, 4)) for k in rng.sample(range(-16, 9), 10)]
        tables[f"table/{n}"] = DLambdaTable(tuple(rows), coverage).kernel_table
    # float rows whose mirrors -2 - lambda lie 0.7 MERGE_TOL above or below
    # another row (the same rate), or 1.9 MERGE_TOL off it (another rate)
    rows = ((0.5, 1), (-2.5 + 7e-10, 1), (0.75, 2), (-2.75 - 7e-10, 2), (-1.0 + 4e-10, 3))
    tables["table-near-mirrors"] = DLambdaTable(rows, coverage).kernel_table
    rows = ((0.25 + 1.9e-9, 2), (-2.25, 2), (0.5, 1), (-2.5, 1))
    tables["table-apart-mirrors"] = DLambdaTable(rows, coverage).kernel_table
    tables["table-open"] = DLambdaTable(
        ((Fraction(-1, 2), 1), (0.75, 2)), Window(-1, 1, include_lo=False, include_hi=False)
    ).kernel_table
    tables["empty"] = KernelTable(Window(-3, 1), ())
    tables["empty-rows"] = KernelTable.from_rows(Window(-2, 2), [])
    tables["empty-restricted"] = SPECS["torus-int@12/0"].kernel_table.restrict(
        Window(Fraction(1, 1000), Fraction(2, 1000))
    )
    return tables


TABLES = _tables()


def _bounds(table, rng):
    """Window bounds on and around the roots: their floats as Fractions, exact
    rational keys, quarter grid rates, and floats MERGE_TOL-close to roots."""
    cov_lo, cov_hi = table.rate_coverage
    exact = [Fraction(r.value) for r in table.roots]
    exact += [r.key[1] for r in table.roots if r.key[0] == "Q"]
    exact += [Fraction(k, 4) for k in range(-16, 9)]
    exact += [Fraction(cov_lo), Fraction(cov_hi)]
    floats = [r.value + f * MERGE_TOL for r in table.roots for f in (0.0, -1.0, 1.0, -2.5, 2.5)]
    floats += [math.nextafter(r.value, math.inf) for r in table.roots]
    floats += [cov_lo, cov_hi, -1.0, 0.0, 1.0]
    bounds = [b for b in exact + floats if cov_lo <= float(b) <= cov_hi]
    return rng.sample(bounds, min(len(bounds), 40))


def _windows(table, rng):
    bounds = _bounds(table, rng)
    windows = []
    for _ in range(80):
        lo, hi = sorted(rng.sample(bounds, 2), key=float)
        windows.append(Window(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    for lo in bounds[:12]:
        # narrower than two bands: every root near the window is decided by its key
        for width in (0, MERGE_TOL / 2, MERGE_TOL, 3 * MERGE_TOL):
            hi = lo + width if width else lo
            if float(hi) <= table.rate_coverage[1]:
                windows.append(Window(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    cov_lo, cov_hi = table.rate_coverage
    for q in (r.key[1] for r in table.roots if r.key[0] == "Q"):
        # ends on an exact rate whose root's float may lie an ulp to either side
        ends = [(q, q), (q, q + Fraction(1, 2)), (q - Fraction(1, 2), q)]
        for lo, hi in ends:
            if cov_lo <= lo and hi <= cov_hi:
                windows += [Window(lo, hi, flag, flag2) for flag in (True, False) for flag2 in (True, False)]
    windows += [
        Window(cov_lo, cov_hi),
        Window(cov_lo, cov_hi, False, False),
        Window(cov_lo - 0.5, cov_hi),  # out of coverage
        Window(cov_lo, cov_hi + 1e-12),
        Window(-math.inf, math.inf),
    ]
    return windows


def _rates(table, rng):
    rates = [r.key for r in table.roots] + [_reflect(r.key, -2) for r in table.roots]
    rates += [r.value for r in table.roots] + [Fraction(r.value) for r in table.roots]
    rates += [r.value + MERGE_TOL * f for r in table.roots for f in (-1.5, 0.5, 0.9)]
    rates += [-1, 0, 1, -2, Fraction(-1, 2), -1.0, 0.37, math.nan, math.inf, -math.inf]
    cov_lo, cov_hi = table.rate_coverage
    rates += [cov_lo, cov_hi, cov_hi + 0.25, cov_lo - 1, Fraction(cov_hi) + 1]
    return rng.sample(rates, min(len(rates), 120))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_queries_match_the_scans(name):
    table = TABLES[name]
    rng = random.Random(name)
    for window in _windows(table, rng):
        inside = outcome(scan_inside, table, window)
        want_sum = inside if inside is CutoffExceeded else sum(r.total_dimension for r in inside)
        assert outcome(table.d_sum, window) == want_sum, window
        restricted = outcome(table.restrict, window)
        if inside is CutoffExceeded:
            assert restricted is CutoffExceeded and outcome(table.roots_in, window) is CutoffExceeded
            continue
        assert restricted.roots == inside and restricted.window == window, window
        assert table.roots_in(window) == [(r.value, r.total_dimension) for r in inside]
        assert outcome(table_symmetry, restricted) == outcome(scan_symmetry, restricted), window
    for rate in _rates(table, rng):
        assert outcome(table.at, rate) == outcome(scan_at, table, rate), rate
        assert outcome(table.d_at, rate) == outcome(scan_d_at, table, rate), rate
    assert outcome(table_symmetry, table) == outcome(scan_symmetry, table)


def test_the_differential_cones_reach_every_key_kind():
    kinds = {r.key[0] for t in TABLES.values() for r in t.roots}
    assert kinds == {"Q", "I", "V"}
    assert table_symmetry(TABLES["table-near-mirrors"])
    assert not table_symmetry(TABLES["table-apart-mirrors"])
    # some symmetry queries answer False and some raise, not only True
    answers = set()
    for name in ("table-on-ends", "table/0", "torus-int@12/0"):
        table = TABLES[name]
        for window in _windows(table, random.Random(name)):
            restricted = outcome(table.restrict, window)
            if restricted is not CutoffExceeded:
                answers.add(outcome(scan_symmetry, restricted))
    assert answers == {True, False, CutoffExceeded}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cone_tables_are_unchanged(name):
    spec = SPECS[name]
    built, scanned = spec.kernel_table, scan_build(spec)
    assert built.window == scanned.window
    assert repr(built.roots) == repr(scanned.roots)


def test_d_sum_decides_only_band_roots_by_key(monkeypatch):
    # a wide window on a torus@48 table: the prefix sums count every root
    # strictly inside, so only roots near a bound reach Window._holds
    table = TABLES["torus-int@48/0"]
    values = [r.value for r in table.roots]
    lo, hi = Fraction(values[3]), Fraction(values[-4])
    window = Window(lo, hi, include_lo=False, include_hi=True)
    near = sum(1 for v in values if abs(v - float(lo)) <= BAND or abs(v - float(hi)) <= BAND)
    calls = []
    holds = Window._holds
    monkeypatch.setattr(Window, "_holds", lambda self, *a: calls.append(a) or holds(self, *a))
    total = table.d_sum(window)
    assert 0 < len(calls) <= near < len(table.roots) // 10
    monkeypatch.undo()
    assert total == sum(r.total_dimension for r in scan_inside(table, window))


# ---------------------------------------------------------------------------
# the index path: index, wall_crossing and morse_index against sums over every root
# ---------------------------------------------------------------------------

def scan_open(table, lo, hi):
    """d summed over every root strictly between lo and hi, each placed by its key."""
    return sum(
        r.total_dimension
        for r in table.roots
        if scan_side(r.value, r.key, lo) > 0 > scan_side(r.value, r.key, hi)
    )


def scan_off_wall(table, rate):
    cov_lo, cov_hi = table.rate_coverage
    if not cov_lo <= rate <= cov_hi:
        raise CutoffExceeded("not covered")
    key = _rate_key(rate)
    if any(_same_rate(r.value, r.key, float(rate), key) for r in table.roots):
        raise RateOnWall("on a root")


def scan_d_minus_one(table):
    scan_covered(table, -1.0, -1.0)
    return sum(r.total_dimension for r in table.roots if _same_rate(r.value, r.key, -1.0, ("Q", -1)))


def scan_index(ends):
    """The AC index: the sum over (cone, rate) ends of d_(-1)/2 plus the d strictly
    between -1 and the rate, negated below -1."""
    for cone, rate in ends:
        scan_off_wall(cone.kernel_table, rate)
    twice = 0
    for cone, rate in ends:
        table = cone.kernel_table
        d = scan_d_minus_one(table)
        if rate >= -1:
            twice += d + 2 * scan_open(table, -1, rate)
        else:
            twice -= d + 2 * scan_open(table, rate, -1)
    if twice % 2:
        raise NonIntegerIndex(
            f"end contributions sum to {Fraction(twice, 2)}; an odd d_(-1) was left unpaired"
        )
    return twice // 2


def scan_wall_crossing(cones, rate_from, rate_to):
    """The AC jump: d summed over the roots strictly between the rates, signed."""
    for cone in cones:
        scan_off_wall(cone.kernel_table, rate_from)
        scan_off_wall(cone.kernel_table, rate_to)
    lo, hi = min(rate_from, rate_to), max(rate_from, rate_to)
    crossed = sum(scan_open(cone.kernel_table, lo, hi) for cone in cones)
    return crossed if rate_to > rate_from else -crossed


def index_outcome(query, *args):
    """The answer, the class of a wall or coverage error, or the odd-index message."""
    try:
        return query(*args)
    except (CutoffExceeded, RateOnWall) as err:
        return type(err)
    except NonIntegerIndex as err:
        return str(err)


def signed(sign, outcome):
    """A CS outcome from the AC one: the index is negated, errors are the same."""
    return sign * outcome if isinstance(outcome, int) else outcome


def _cone(table):
    return ConeData((ConeComponent(SimpleNamespace(kernel_table=table)),))


CONES = {name: _cone(table) for name, table in TABLES.items()}


def _index_rates(table, rng):
    """Seeded float rates (some below -1), exact rates within 2 MERGE_TOL of a
    root (on it only when its float is its rate), and rates off the coverage."""
    cov_lo, cov_hi = table.rate_coverage
    rates = [rng.uniform(cov_lo, cov_hi) for _ in range(8)]
    rates += [rng.uniform(cov_lo, -1.0) for _ in range(4)]
    for r in rng.sample(table.roots, min(len(table.roots), 8)):
        near = Fraction(r.value)
        for step in (0, 1e-12, -1e-12, 1.5 * MERGE_TOL, -1.5 * MERGE_TOL):
            rates.append(near + Fraction(step))
    rates += [-1, Fraction(-3, 2), cov_hi + 0.25, Fraction(cov_lo) - 1, math.nan]
    rng.shuffle(rates)
    return rates


def _valid_rate(cone, rng):
    cov_lo, cov_hi = cone.kernel_table.rate_coverage
    while True:
        try:
            return EndSpec(cone, rng.uniform(cov_lo, cov_hi)).rate
        except RateOnWall:
            pass


@pytest.mark.parametrize("name", sorted(TABLES))
def test_index_path_matches_the_scans(name):
    names = sorted(TABLES)
    cone, other = CONES[name], CONES[names[(names.index(name) + 1) % len(names)]]
    rng = random.Random(f"index {name}")
    rates, other_rates = _index_rates(cone.kernel_table, rng), _index_rates(other.kernel_table, rng)
    for rate, other_rate in zip(rates, other_rates * 3):
        for ends in ([(cone, rate)], [(cone, rate), (other, other_rate)]):
            want = index_outcome(scan_index, ends)
            for kind, sign in ((AC, 1), (CS, -1)):
                op = lambda: index(OperatorSpec(kind, tuple(EndSpec(c, r) for c, r in ends)))
                assert index_outcome(op) == signed(sign, want), (kind, ends)
    for cones in ([cone], [cone, other]):
        ends = tuple(EndSpec(c, _valid_rate(c, rng)) for c in cones)
        for a, b in zip(rates, rates[1:] + rates[:1]):
            want = index_outcome(scan_wall_crossing, cones, a, b)
            for kind, sign in ((AC, 1), (CS, -1)):
                op = OperatorSpec(kind, ends)
                jump = index_outcome(wall_crossing, op, a, b)
                assert jump == signed(sign, want), (kind, a, b)
                crossed = index_outcome(crossed_roots, op, a, b)
                if isinstance(jump, int):
                    direction = 1 if b > a else -1
                    assert jump == sign * direction * sum(d for _, d in crossed)
                else:
                    assert crossed is jump


def test_the_index_rates_reach_every_outcome():
    outcomes = set()
    for name, cone in CONES.items():
        rng = random.Random(f"index {name}")
        for rate in _index_rates(cone.kernel_table, rng):
            got = index_outcome(scan_index, [(cone, rate)])
            outcomes.add(got if not isinstance(got, int) else int)
            near = isinstance(rate, Fraction) and any(
                0 < abs(float(rate) - r.value) <= BAND for r in cone.kernel_table.roots
            )
            if near and isinstance(got, int):
                outcomes.add("off a root within 2 MERGE_TOL")
            if rate < -1 and isinstance(got, int):
                outcomes.add("below -1")
    assert {int, CutoffExceeded, RateOnWall, "off a root within 2 MERGE_TOL", "below -1"} <= outcomes
    assert any(isinstance(o, str) and o.startswith("end contributions") for o in outcomes)


def test_an_odd_index_message_is_pinned():
    ends = CONES["table-on-ends"]  # rows at -1 of dimensions 2 and 1: d_(-1) = 3
    op = OperatorSpec(AC, (EndSpec(ends, 0.3),))
    with pytest.raises(NonIntegerIndex) as err:
        index(op)
    assert str(err.value) == "end contributions sum to 13/2; an odd d_(-1) was left unpaired"
    hl = CONES["hl@12"]
    op = OperatorSpec(CS, (EndSpec(ends, 0.3), EndSpec(hl, 0.5)))
    with pytest.raises(NonIntegerIndex) as err:
        index(op)
    assert str(err.value) == "end contributions sum to 29/2; an odd d_(-1) was left unpaired"


def _sl_specs():
    specs = dict(SPECS)
    for name, (build, _provenance) in PRESETS.items():
        for cutoff in (12, 30):
            for i, component in enumerate(build(cutoff).components):
                specs[f"{name}@{cutoff}/{i}"] = component.kernel_source
    return specs


SL_SPECS = _sl_specs()


@pytest.mark.parametrize("name", sorted(SL_SPECS))
def test_morse_index_matches_the_scan(name):
    spec = SL_SPECS[name]
    table = spec.kernel_table
    scan_covered(table, -1.0, 1.0)
    small = sum(
        r.total_dimension
        for r in table.roots
        if scan_side(r.value, r.key, 0) >= 0 > scan_side(r.value, r.key, 1)
    )
    assert morse_index(spec) == spec.topology.b1 + 2 * scan_open(table, -1, 0) + small


def test_index_and_wall_crossing_build_no_window(monkeypatch):
    cone = ConeData((ConeComponent(SPECS["torus-int@48/0"]),))
    table = cone.kernel_table  # built, with its coverage window, before counting
    rng = random.Random(48)
    cov_lo, cov_hi = table.rate_coverage
    rates = [rng.uniform(cov_lo, cov_hi) for _ in range(20)]
    rates += [Fraction(r.value) + Fraction(1, 10**12) for r in table.roots[::7]]
    op = OperatorSpec(AC, (EndSpec(cone, rates[0]),))
    built = []
    post_init = Window.__post_init__
    monkeypatch.setattr(Window, "__post_init__", lambda self: built.append(self) or post_init(self))
    indices = [index(with_rates(op, r)) for r in rates]
    jumps = [wall_crossing(op, a, b) for a, b in zip(rates, rates[1:])]
    assert built == []
    monkeypatch.undo()
    assert jumps == [b - a for a, b in zip(indices, indices[1:])]
    assert len(set(indices)) > 5


# ---------------------------------------------------------------------------
# d-symmetry: root pairing against the mirror-by-mirror lookup
# ---------------------------------------------------------------------------

def lookup_symmetry(table):
    """table_symmetry before root pairing, kept verbatim: each mirror -2 - lambda
    sliced from the index and matched as ``at`` does."""
    roots, values, (cov_lo, cov_hi) = table.roots, table._index[0], table.rate_coverage
    keys = [_reflect(r.key, -2) for r in roots]
    for r, key, value in zip(roots, keys, map(_key_value, keys)):
        if not cov_lo <= value <= cov_hi:
            table._check_covered(value, value)  # raises, as d_at there would
        i = bisect_left(values, value - 2 * MERGE_TOL)
        near = roots[i : bisect_right(values, value + 2 * MERGE_TOL, i)]
        same = (m.total_dimension for m in near if _same_rate(m.value, m.key, value, key))
        if sum(same) != r.total_dimension:
            return False
    return True


def symmetry_outcome(check, table):
    try:
        return check(table)
    except CutoffExceeded as err:
        return CutoffExceeded, str(err)


def _symmetric_windows(table, rng):
    """Windows symmetric about -1: seeded exact and float half-widths, and ends
    on a root's exact rate or on its float."""
    cov_lo, cov_hi = table.rate_coverage
    radius = min(-1.0 - cov_lo, cov_hi + 1.0)
    widths = [Fraction(rng.randint(1, 400), 400) * Fraction(radius) for _ in range(8)]
    widths += [rng.uniform(0.0, radius) for _ in range(8)]
    widths += [r.key[1] + 1 for r in table.roots if r.key[0] == "Q" and r.key[1] > -1]
    widths += [r.value + 1.0 for r in table.roots if r.value > -1.0]
    windows = []
    for w in widths:
        if float(w) <= radius:
            flag = rng.random() < 0.5
            windows.append(Window(-1 - w, -1 + w, flag, flag))
    return windows


@pytest.mark.parametrize("name", sorted(SL_SPECS))
def test_symmetry_pairing_matches_the_lookup_on_cones(name):
    table = SL_SPECS[name].kernel_table
    exact = all(r.key[0] != "V" for r in table.roots)
    for window in _symmetric_windows(table, random.Random(f"symmetry {name}")):
        restricted = table.restrict(window)
        got = symmetry_outcome(table_symmetry, restricted)
        assert got == symmetry_outcome(lookup_symmetry, restricted), window
        if exact and isinstance(window.lo, Fraction):
            assert got is True and _paired(restricted), window  # decided by pairing


def _asymmetric_tables(rng):
    """Mirror-symmetric d-tables with one defect: a dimension changed, a rate
    moved off its mirror, or a row dropped."""
    coverage = Window(Fraction(-4), Fraction(2))
    tables = []
    for n in range(12):
        half = [(Fraction(k, 4), rng.randint(1, 5)) for k in rng.sample(range(-3, 8), 4)]
        rows = half + [(-2 - lam, d) for lam, d in half] + [(Fraction(-1), rng.randint(0, 3))]
        i = rng.randrange(len(half))
        lam, d = rows[i]
        if n % 3 == 0:
            rows[i] = (lam, d + 1)
        elif n % 3 == 1:
            rows[i] = (lam + Fraction(1, 8), d)
        else:
            del rows[i]
        tables.append(KernelTable.from_rows(coverage, rows))
    return tables


def test_symmetry_pairing_matches_the_lookup_elsewhere():
    # float ("V" key) tables, whole and on symmetric windows
    float_tables = [t for t in TABLES.values() if any(r.key[0] == "V" for r in t.roots)]
    assert len(float_tables) >= 5
    for table in float_tables:
        windows = _symmetric_windows(table, random.Random(len(table.roots)))
        for t in [table] + [table.restrict(w) for w in windows]:
            assert symmetry_outcome(table_symmetry, t) == symmetry_outcome(lookup_symmetry, t)
    # asymmetric user tables
    for table in _asymmetric_tables(random.Random(24)):
        assert table_symmetry(table) is False and lookup_symmetry(table) is False
    # a symmetric table passes by pairing
    rows = [(Fraction(1, 4), 3), (Fraction(-9, 4), 3), (Fraction(-1), 2), (Fraction(1, 2), 1), (Fraction(-5, 2), 1)]
    table = KernelTable.from_rows(Window(Fraction(-4), Fraction(2)), rows)
    assert _paired(table) and lookup_symmetry(table)


def test_a_mirror_outside_the_coverage_raises_as_before():
    # a row at 3/2 whose mirror -7/2 lies below the coverage [-3, 2]
    table = KernelTable.from_rows(Window(Fraction(-3), Fraction(2)), [(Fraction(3, 2), 1)])
    got = symmetry_outcome(table_symmetry, table)
    assert got == symmetry_outcome(lookup_symmetry, table)
    assert got == (CutoffExceeded, "kernel data only covers [-3, 2], asked for [-3.5, -3.5]")
    # the root -10/3 has the float -3.333333333333333, above -10/3's float: a window
    # from that float keeps the root, but its rate, the mirror of 4/3, lies below
    # the coverage; the roots in between pair off
    table = SPECS["rational-off-by-an-ulp@10"].kernel_table
    low = next(r for r in table.roots if r.key == ("Q", Fraction(-10, 3)))
    restricted = table.restrict(Window(low.value, Fraction(4, 3)))
    assert restricted.roots[0] is low and restricted.roots[-1].key == ("Q", Fraction(4, 3))
    assert not _paired(restricted)
    got = symmetry_outcome(table_symmetry, restricted)
    assert got == symmetry_outcome(lookup_symmetry, restricted)
    assert got[0] is CutoffExceeded


# ---------------------------------------------------------------------------
# one key per rate, and one coincidence rule for placing a rate against a bound
# ---------------------------------------------------------------------------

def test_rate_keys_keep_an_exact_rate_as_given():
    assert type(_rate_key(1)[1]) is int and type(_rate_key(Fraction(1, 3))[1]) is Fraction
    assert _rate_key(1) == _rate_key(Fraction(1)) and hash(_rate_key(1)) == hash(_rate_key(Fraction(1)))
    assert _rate_key(0.5) == ("V", 0.5)
    for name in ("hl@12", "plane@12", "table-on-ends"):
        table = TABLES[name]
        assert table.at(1) == table.at(Fraction(1)) == table.at(("Q", 1)) != ()


@pytest.mark.parametrize("e", [4e-10, -4e-10, 1e-9, -1e-9])
def test_a_float_root_within_merge_tol_of_a_bound_is_on_it(e):
    # the eigenvalue 2 + e puts a float root within MERGE_TOL of 1, where d_at and
    # rigidity see it; the Morse and s-ind windows end at 1 and place it there too
    spectrum = Spectrum(((0.0, 1), (2.0 + e, 6), (6.0, 6), (8.0, 6)), 8.0)
    spec = SLConeSpec(spectrum, LinkTopology(1, 2))
    report = stability_report(ConeData((ConeComponent(spec, symmetry_group_dim=2),)))
    assert morse_index(spec) == 9
    assert report["s_ind_minus"] == report["s_ind_plus"] == report["s_ind"] == "1"
    near_one = [row for row in report["d_table"] if abs(row["lambda"] - 1) <= MERGE_TOL]
    assert [row["dimension"] for row in near_one] == [12]


def test_closed_and_open_windows_differ_by_the_roots_at_their_bounds():
    float_tables = [t for t in TABLES.values() if any(r.key[0] == "V" for r in t.roots)]
    windows = 0
    for table in float_tables:
        rng = random.Random(len(table.roots))
        bounds = _bounds(table, rng)
        for _ in range(200):
            lo, hi = sorted(rng.sample(bounds, 2), key=float)
            if float(hi) - float(lo) > 4 * MERGE_TOL:
                closed, open_ = Window(lo, hi), Window(lo, hi, False, False)
                assert table.d_sum(closed) - table.d_sum(open_) == table.d_at(lo) + table.d_at(hi)
                windows += 1
    assert windows > 500
