"""exact-sweep: one op per seeded cone through the exact core.

Each cycle holds one cone of every class below, in seeded order:

- flat-torus links at cutoffs 12, 24 and 48, once with an integral inverse
  form (integer eigenvalues, exact root keys) and once with a generic
  rational metric (rational eigenvalues, the float fallback path), plus a
  second rational torus at cutoff 48, so that the 90th percentile falls
  inside that class (ranks 82-100% of a cycle) rather than on its edge;
- the hl, plane and plane-pair presets at a seeded cutoff;
- a seeded ``DLambdaTable`` cone.

An op builds the cone's spectrum, takes ``indicial_roots`` on a seeded
window, runs ``symmetry_check`` and ``morse_index`` (SL cones), the
``stability_report``, and then ``index`` and ``wall_crossing`` at seeded
float rates: few rates on tori (their cost is building roots), many on
presets (their cost is querying them).  Outputs are checked by invariants
(d-symmetry, telescoping, jump = index difference), by the paper's values
on the presets, and by an independent index formula on the table cones.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

CLASSES = (
    ("torus-int", 12),
    ("torus-int", 24),
    ("torus-int", 48),
    ("torus-rat", 12),
    ("torus-rat", 24),
    ("torus-rat", 48),
    ("torus-rat", 48),
    ("hl", None),
    ("plane", None),
    ("plane-pair", None),
    ("table", None),
)
RATES = {"torus-int": 3, "torus-rat": 3, "table": 8}
PRESET_RATES = 16
TABLE_COVERAGE = (Fraction(-4), Fraction(2))

# paper values at rates -1, 0, 1: (kernel dims, s-ind, rigid)
PRESET_EXPECTED = {
    "hl": ((2, 7, 12), "1", True),
    "plane": ((0, 4, 8), "-3", True),
    "plane-pair": ((0, 8, 16), "1", True),
}
HL_MORSE = 9


def _coverage(cutoff: float) -> tuple[float, float]:
    root = math.sqrt(1.0 + 4.0 * cutoff)
    return ((-1.0 - root) / 2.0, (-3.0 + root) / 2.0)


def _rates(rng: random.Random, n: int, cov: tuple[float, float]) -> list[float]:
    """Seeded float rates, kept off the quarter grid (-0.5, 0, ... are roots)."""
    lo, hi = max(cov[0], -4.5) + 0.05, min(cov[1], 2.5) - 0.05
    out: list[float] = []
    while len(out) < n:
        r = rng.uniform(lo, hi)
        if abs(r * 4.0 - round(r * 4.0)) > 4e-6:
            out.append(r)
    return out


def _integral_metric(rng: random.Random) -> tuple:
    """Metric whose inverse q(m, n) = a m^2 + 2b mn + c n^2 has integer values."""
    while True:
        a, c, b2 = rng.randint(1, 5), rng.randint(1, 5), rng.randint(-4, 4)
        b = Fraction(b2, 2)
        if b * b < a * c:
            d = a * c - b * b
            return (c / d, -b / d, a / d)


def _rational_metric(rng: random.Random) -> tuple:
    while True:
        g11 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        g22 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        g12 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if g12 * g12 < g11 * g22:
            return (g11, g12, g22)


def make_cone(rng: random.Random, kind: str, cutoff) -> dict:
    """Seeded inputs of one op (plain data; the library builds the cone)."""
    if cutoff is None and kind != "table":
        cutoff = rng.choice((12, 24, 48))
    spec: dict = {
        "family": "cone",
        "kind": kind,
        "cutoff": cutoff,
        "op_kind": rng.choice(("ac", "ac", "ac", "cs")),
    }
    if kind == "torus-int":
        spec["metric"] = _integral_metric(rng)
    elif kind == "torus-rat":
        spec["metric"] = _rational_metric(rng)
    if kind == "table":
        lams = rng.sample(range(-15, 8), rng.randint(6, 12))
        rows = [(Fraction(k, 4), rng.randint(1, 9)) for k in lams if k != -4]
        rows.append((Fraction(-1), 2 * rng.randint(0, 2)))
        spec["rows"] = tuple(sorted(rows))
        cov = (float(TABLE_COVERAGE[0]), float(TABLE_COVERAGE[1]))
    else:
        cov = _coverage(cutoff)
        w_max = min(5.0, (-1.0 + math.sqrt(1.0 + 4.0 * cutoff)) / 2.0)
        spec["sym_w"] = Fraction(rng.randint(4, int(4 * w_max)), 4)
        spec["window"] = (-1 - Fraction(rng.randint(4, 10), 4), Fraction(rng.randint(0, 6), 4))
    spec["rates"] = _rates(rng, RATES.get(kind, PRESET_RATES), cov)
    return spec


def op_class(spec: dict) -> str:
    if spec["kind"].startswith("torus"):
        return f"{spec['kind']}@{spec['cutoff']}"
    return spec["kind"]


def cycle(rng: random.Random) -> list[dict]:
    cones = [make_cone(rng, kind, cutoff) for kind, cutoff in CLASSES]
    rng.shuffle(cones)
    return cones


class ExactOps:
    """Runs and checks ops against an imported cone_spectra."""

    def __init__(self):
        from cone_spectra import fredholm, indicial, presets, spectra, stability

        self.fredholm, self.indicial, self.presets = fredholm, indicial, presets
        self.spectra, self.stability = spectra, stability

    def _cone(self, spec: dict):
        kind, p, st = spec["kind"], self.presets, self.stability
        if kind.startswith("torus"):
            return p.torus_cone(self.spectra.TorusMetric(*spec["metric"]), spec["cutoff"])
        if kind == "hl":
            return p.hl_cone(spec["cutoff"])
        if kind == "plane":
            return p.plane_cone(spec["cutoff"])
        if kind == "plane-pair":
            return p.plane_pair_cone(spec["cutoff"])
        table = st.DLambdaTable(spec["rows"], self.indicial.Window(*TABLE_COVERAGE))
        return st.ConeData((st.ConeComponent(table),))

    def run(self, spec: dict) -> dict:
        """The timed part: every library call of one op, no checking."""
        ind, fr = self.indicial, self.fredholm
        cone = self._cone(spec)
        sl = [c.kernel_source for c in cone.components if isinstance(c.kernel_source, ind.SLConeSpec)]
        out: dict = {"tables": [], "symmetric": [], "morse": []}
        for s in sl:
            out["tables"].append(ind.indicial_roots(s, ind.Window(*spec["window"])))
            w = spec["sym_w"]
            out["symmetric"].append(ind.symmetry_check(s, ind.Window(-1 - w, -1 + w)))
            out["morse"].append(ind.morse_index(s))
        out["report"] = self.stability.stability_report(cone)
        rates = spec["rates"]
        op = fr.OperatorSpec(spec["op_kind"], (fr.EndSpec(cone, rates[0]),))
        out["index"] = [fr.index(fr.with_rates(op, r)) for r in rates]
        out["jumps"] = [fr.wall_crossing(op, a, b) for a, b in zip(rates, rates[1:])]
        out["span_jump"] = fr.wall_crossing(op, rates[0], rates[-1])
        return out

    def check(self, spec: dict, out: dict) -> list[str]:
        """Invariant and reference checks; returns the failures found."""
        bad: list[str] = []
        kind, rates, idx = spec["kind"], spec["rates"], out["index"]
        for table in out["tables"]:
            lo, hi = (float(x) for x in spec["window"])
            values = [r.value for r in table.roots]
            if values != sorted(set(values)) or not all(lo <= v <= hi for v in values):
                bad.append("indicial roots unsorted or outside the window")
            if any(r.total_dimension < 1 for r in table.roots):
                bad.append("indicial root of dimension < 1")
        if not all(out["symmetric"]):
            bad.append("d_lambda != d_(-2-lambda)")
        if any(m < 0 for m in out["morse"]):
            bad.append("negative Morse index")
        for i, jump in enumerate(out["jumps"]):
            if jump != idx[i + 1] - idx[i]:
                bad.append(f"jump {jump} != index difference {idx[i + 1] - idx[i]}")
        if not sum(out["jumps"]) == out["span_jump"] == idx[-1] - idx[0]:
            bad.append("wall crossings do not telescope")
        d_table = {row["lambda"]: row["dimension"] for row in out["report"]["d_table"]}
        sign = 1 if spec["op_kind"] == "ac" else -1
        if kind in PRESET_EXPECTED:
            dims, s_ind, rigid = PRESET_EXPECTED[kind]
            if tuple(d_table.get(x, 0) for x in (-1.0, 0.0, 1.0)) != dims:
                bad.append(f"{kind} kernel table {d_table}")
            if out["report"]["s_ind"] != s_ind or out["report"]["rigid"] is not rigid:
                bad.append(f"{kind} s-ind/rigidity {out['report']}")
        if kind == "hl":
            if sum(out["morse"]) != HL_MORSE:
                bad.append(f"hl Morse index {out['morse']}")
            for i, r in enumerate(rates):
                if -1.0 < r < 0.0 and idx[i] != sign:
                    bad.append(f"hl index {idx[i]} at rate {r}")
            for i, jump in enumerate(out["jumps"]):
                if -1.0 < rates[i] < 0.0 < rates[i + 1] < 1.0 and jump != 7 * sign:
                    bad.append(f"hl wall jump {jump}")
        if kind.startswith("torus") and d_table.get(-1.0) != 2:
            bad.append("torus d_(-1) != b1 = 2")
        if kind == "table":
            rows = spec["rows"]
            want = [(float(lam), d) for lam, d in rows if d > 0 and -3 <= lam <= 1]
            if sorted(d_table.items()) != want:
                bad.append("table cone d_table differs from its rows")
            for i, r in enumerate(rates):
                if idx[i] != sign * _table_index(rows, r):
                    bad.append(f"table index {idx[i]} at rate {r}")
        return bad


def _table_index(rows, rate: float) -> int:
    """AC index of one end from its d-table, computed from the formula."""
    half = Fraction(dict(rows).get(Fraction(-1), 0), 2)
    if rate >= -1.0:
        total = half + sum(d for lam, d in rows if -1 < lam < rate)
    else:
        total = -(half + sum(d for lam, d in rows if rate < lam < -1))
    return int(total)
