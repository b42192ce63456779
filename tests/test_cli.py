"""CLI adapter checks: exit codes, determinism, config handling, parity."""

import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cone_spectra
from cone_spectra import cli, g2, geometry, mesh, presets, stability
from cone_spectra.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    MAX_MESH_COUNT,
    MAX_MESH_VERTICES,
    MAX_PROFILE_ROWS,
    MAX_SAMPLES,
    MAX_TUPLES,
    parse_window,
    run,
)
from cone_spectra.errors import RateOnWall
from cone_spectra.fredholm import EndSpec
from cone_spectra.geometry import LawlorParams, lawlor_angles
from cone_spectra.presets import hl_cone
from cone_spectra.spectra import Spectrum


def test_indicial_example():
    code, out = run(["indicial", "--cone", "hl", "--window", "-2:1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert {"lambda": 0.0, "dimension": 7} in report["result"]["roots"]
    assert report["tool"] == "cone-spectra"
    assert "version" in report and "config" in report
    assert "Harvey-Lawson" in report["provenance"]


def test_indicial_jacobi_partner_outside_table():
    # the partner 3 of the root -4 needs eigenvalue 20, past the plane's cutoff 12
    args = ["indicial", "--cone", "plane", "--window=-4:2"]
    code, out = run([*args, "--jacobi"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["jacobi"]["unpaired"] == [{"lambda": -4.0, "dimension": 12, "partner": 3.0}]
    assert all(-4.0 not in e["contributing_rates"] for e in result["jacobi"]["entries"])
    code, plain = run(args)
    assert code == EXIT_OK
    assert result["roots"] == json.loads(plain)["result"]["roots"]


def test_stability_example():
    code, out = run(["stability", "--cone", "hl", "--sym-dim", "2"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["s_ind"] == "1"
    assert result["rigid"] is True


def test_lawlor_angles_example():
    code, out = run(["lawlor", "angles", "--a", "1,1,1"])
    assert code == EXIT_OK
    theta = json.loads(out)["result"]["theta"]
    assert all(abs(t - 1.0471975511965976) < 1e-7 for t in theta)


def test_cli_matches_library():
    code, out = run(["lawlor", "angles", "--a", "2.5,0.7,1.3"])
    direct = lawlor_angles(LawlorParams((2.5, 0.7, 1.3)))
    assert json.loads(out)["result"]["theta"] == list(direct.theta)
    code, out = run(["stability", "--cone", "plane-pair", "--sym-dim", "6"])
    direct = stability.stability_report(presets.plane_pair_cone())
    assert json.loads(out)["result"] == direct
    # a p/q literal reads as the float of its fraction, as in --metric
    code, out = run(["lawlor", "angles", "--a", "1/3,1,1"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["a"] == [0.3333333333333333, 1.0, 1.0]
    assert result["theta"] == list(lawlor_angles(LawlorParams((1 / 3, 1.0, 1.0))).theta)


def test_parser_defaults_match_library_defaults():
    # build_parser may not import the layers that own these defaults (the
    # exact subcommands start without numpy), so each copy is checked here
    def owner(fn, name):
        return inspect.signature(fn).parameters[name].default

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a.choices, dict)).choices
    for command in ("spectrum", "indicial", "stability", "index"):
        assert sub[command].get_default("cutoff") == presets.DEFAULT_CUTOFF, command
    lawlor = sub["lawlor"]
    r_window = owner(geometry.lawlor_decay_table, "r_window")
    assert (lawlor.get_default("r_min"), lawlor.get_default("r_max")) == r_window
    assert lawlor.get_default("tol") == owner(geometry.lawlor_solve, "tol")
    assert sub["hl"].get_default("a") == owner(geometry.hl_decay_table, "a")
    assert parser.get_default("seed") == owner(geometry.lawlor_decay_table, "seed")


def _readme_cli_block() -> list[str]:
    """The commands of the fenced block under README's '## CLI' heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_block())
def test_readme_cli_block_runs(tmp_path, monkeypatch, line):
    # the cli-readme benchmark runs these lines; --off link.off reads the working directory
    monkeypatch.chdir(tmp_path)
    mesh.save_off(mesh.icosphere(2), tmp_path / "link.off")
    prog, *argv = line.split()
    assert prog == "cone-spectra"
    code, out = run(argv)
    assert code == EXIT_OK, out
    if "--output-format" in argv and argv[argv.index("--output-format") + 1] == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
    else:
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["command"] == argv[0] and "result" in report


def test_byte_identical_reruns():
    args = ["lawlor", "verify", "--a", "1,1,1", "--samples", "25", "--seed", "9"]
    assert run(args) == run(args)
    args = ["spectrum", "mesh", "--builtin", "icosphere:1", "--count", "4"]
    assert run(args) == run(args)


def test_exit_codes(tmp_path):
    assert run(["nonsense"])[0] == EXIT_USAGE
    assert run(["lawlor", "angles"])[0] == EXIT_VALIDATION  # missing --a
    assert run(["stability", "--cone", "nope"])[0] == EXIT_VALIDATION
    assert run(["indicial", "--cone", "hl", "--window", "-9:1"])[0] == EXIT_VALIDATION
    # the fully symmetric neck's subtracted remainder fits cleanly (like r^-8)
    code, out = run(["lawlor", "decay", "--a", "1,1,1", "--subtract"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["fitted_exponent"] < -6.0
    # far out that remainder sits below the rounding of the deviation itself
    code, out = run(["lawlor", "decay", "--a", "1,1,1", "--subtract",
                     "--r-min", "1000", "--r-max", "10000"])
    assert code == EXIT_NUMERICAL
    assert json.loads(out)["error"] == "FitUnstable"
    # malformed d-table JSON: missing keys, a list at the top level, a
    # coverage that is not a pair, or a non-numeric rate
    for i, body in enumerate((
        {"rows": [{"lambda": 0}], "coverage": [-3, 3]},
        {"rows": [{"lambda": 0, "dimension": 7}]},
        [{"lambda": 0, "dimension": 7}],
        {"rows": [{"lambda": 0, "dimension": 7}], "coverage": [-3]},
        {"rows": [{"lambda": 0, "dimension": 7}], "coverage": [-3, 1, 5]},
        {"rows": [{"lambda": "abc", "dimension": 7}], "coverage": [-3, 3]},
    )):
        table = tmp_path / f"bad{i}.json"
        table.write_text(json.dumps(body))
        code, out = run(["stability", "--cone", f"table:{table}"])
        assert code == EXIT_VALIDATION
        error = json.loads(out)
        assert error["error"] == "ValidationError"
        assert error["message"].startswith(f"malformed d-table {table}: ")
    # one --stratum-dim per component, and a positive finite probe radius
    for argv in (
        ["stability", "--cone", "plane-pair", "--sym-dim", "6", "--stratum-dim", "8,8,99"],
        ["hl", "xi-relation", "--r", "-1"],
        ["hl", "xi-relation", "--r", "0"],
        ["hl", "xi-relation", "--r", "inf"],
        ["hl", "xi-relation", "--r", "nan"],
        ["spectrum", "torus", "--metric", "1,0,1", "--cutoff", "1e9"],
        # number literals that are not finite floats, and unbounded sphere degrees
        ["indicial", "--cone", "hl", "--window=-1e400:1"],
        ["stability", "--cone", "torus:1e400,0,1"],
        ["spectrum", "sphere", "--cutoff", "inf"],
        ["spectrum", "sphere", "--cutoff", "1e300"],
        ["g2", "check", "--tuples", "-1"],
        # empty sample sets check nothing
        ["hl", "verify", "--samples", "0"],
        ["lawlor", "verify", "--a", "1,1,1", "--samples", "-5"],
        # --metric, torus:, --a and --theta take exactly three finite numbers
        ["spectrum", "torus", "--metric", "1,0"],
        ["spectrum", "torus", "--metric", "1,0,1,2"],
        ["spectrum", "torus"],
        ["stability", "--cone", "torus:1,0"],
        ["lawlor", "angles", "--a", "1,,1,1"],
        ["lawlor", "angles", "--a", "inf,1,1"],
        ["lawlor", "angles", "--a", "1e400,1,1"],
        ["planes", "--theta", "1,1"],
    ):
        code, out = run(argv)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValidationError"
    # negative refinements check nothing; HL branches are 1, 2, 3 and a is >= 0
    for argv in (
        ["spectrum", "mesh", "--builtin", "icosphere:-1"],
        ["hl", "decay", "--branch", "4"],
        ["hl", "decay", "--branch", "-2"],
        ["hl", "decay", "--a", "-1"],
    ):
        code, out = run(argv)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValueError"
    # a result that overflows to inf is a numerical failure, not invalid JSON
    code, out = run(["lawlor", "profile", "--a", "1,1,1", "--y-max", "1e200", "--count", "3"])
    assert code == EXIT_NUMERICAL
    assert json.loads(out)["error"] == "NonFiniteResult"
    # a Newton tolerance must be positive and finite
    for tol in ("-1", "0", "nan"):
        code, out = run(["lawlor", "solve", "--theta", "0.9,1.1,1.1415926535897931",
                         "--tol", tol])
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValueError"
    # a scale whose a1 a2 a3 = (4 pi / 3A)^2 underflows to 0 or overflows
    for scale in ("inf", "1e300", "1e-300"):
        code, out = run(["lawlor", "solve", "--theta", "0.9,1.1,1.1415926535897931",
                         "--scale", scale])
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValueError"
    # malformed OFF files: truncated in the vertex or the face block, or a
    # non-numeric coordinate
    tetrahedron = ["OFF", "4 4 0", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
                   "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
    for name, lines in (
        ("trunc_vertices", tetrahedron[:4]),
        ("trunc_faces", tetrahedron[:9]),
        ("non_numeric", tetrahedron[:3] + ["1 x 0"] + tetrahedron[4:]),
    ):
        off = tmp_path / f"{name}.off"
        off.write_text("\n".join(lines) + "\n")
        code, out = run(["spectrum", "mesh", "--off", str(off), "--count", "3"])
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "InvalidMesh"


def test_wall_crossing_report():
    code, out = run(
        ["index", "--kind", "ac", "--end", "hl:-0.9", "--cross", "-0.9:0.5"]
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["index"] == 1
    assert result["wall_crossing"]["jump"] == 7
    assert result["wall_crossing"]["crossed_roots"] == [
        {"lambda": 0.0, "dimension": 7}
    ]
    assert result["ends"][0]["chamber"] == [-1.0, 0.0]


def test_rate_on_wall_is_validation_error():
    assert run(["index", "--kind", "ac", "--end", "hl:0"])[0] == EXIT_VALIDATION


@pytest.mark.parametrize("argv, asked", [
    (["--end", "hl:5"], "[5, 5]"),
    (["--end", "hl:-0.9", "--cross", "-0.9:3"], "[3, 3]"),
])
def test_rate_outside_the_coverage_has_one_message(argv, asked):
    # an end rate and a crossing rate are checked by the kernel table's own coverage test
    code, out = run(["index", "--kind", "ac", *argv])
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {
        "error": "CutoffExceeded",
        "message": f"kernel data only covers [-4, 2], asked for {asked}",
    }


def test_index_rates_are_exact():
    # rates parse like every other number: p/q and decimal literals stay exact,
    # and the report prints them as floats
    code, out = run(["index", "--kind", "ac", "--end", "hl:1/2", "--cross", "1/2:-1/2"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["ends"][0]["rate"] == 0.5 and result["index"] == 8  # 2/2 + d_0
    crossing = result["wall_crossing"]
    assert (crossing["from"], crossing["to"], crossing["jump"]) == (0.5, -0.5, -7)
    # 5e-11 above the root -1: decided exactly, so off the wall (a float rate
    # this close is on it, by MERGE_TOL)
    code, out = run(["index", "--kind", "ac", "--end", "hl:-0.99999999995"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["index"] == 1 and result["ends"][0]["chamber"] == [-1.0, 0.0]
    with pytest.raises(RateOnWall):
        EndSpec(hl_cone(), -0.99999999995)


def test_spectrum_torus_exact_metric():
    code, out = run(["spectrum", "torus", "--metric", "2/3,1/3,2/3", "--cutoff", "7"])
    assert code == EXIT_OK
    entries = json.loads(out)["result"]["entries"]
    assert entries == [
        {"eigenvalue": 0.0, "multiplicity": 1},
        {"eigenvalue": 2.0, "multiplicity": 6},
        {"eigenvalue": 6.0, "multiplicity": 6},
    ]


def test_global_flags_after_subcommand():
    before = run(["--seed", "3", "lawlor", "verify", "--a", "1,1,1", "--samples", "10"])
    after = run(["lawlor", "verify", "--a", "1,1,1", "--samples", "10", "--seed", "3"])
    assert before == after and before[0] == EXIT_OK
    code, out = run(["spectrum", "sphere", "--cutoff", "6", "--output-format", "csv"])
    assert code == EXIT_OK
    assert out.startswith("eigenvalue")


def test_csv_output():
    code, out = run(["--output-format", "csv", "spectrum", "sphere", "--cutoff", "6"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1].startswith("0.0,1")
    # csv is undefined for scalar reports
    assert run(["--output-format", "csv", "g2", "check", "--tuples", "2"])[0] == EXIT_VALIDATION


def test_profile_csv(tmp_path):
    code, out = run(
        ["--output-format", "csv", "lawlor", "profile", "--a", "1,1,1",
         "--y-min", "-1", "--y-max", "1", "--count", "5"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "y,theta1,theta2,theta3,z1,z2,z3"
    assert len(lines) == 6


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    # |z_k| overflows to inf
    ["--a", "1,1,1", "--y-min", "-1e200", "--y-max", "1e200", "--count", "3"],
])
def test_non_finite_result_is_a_numerical_failure_in_either_format(argv, fmt):
    code, out = run(["--output-format", fmt, "lawlor", "profile", *argv])
    assert (code, json.loads(out)) == (EXIT_NUMERICAL, {
        "error": "NonFiniteResult", "message": "Out of range float values are not JSON compliant",
    })


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_lawlor_parameters_out_of_float_range_are_a_validation_error(fmt):
    # a_1 a_2 a_3 overflows: LawlorParams rejects a before any angle or row is computed
    argv = ["--output-format", fmt, "lawlor", "profile", "--a", "1e300,1e300,1e300", "--count", "3"]
    code, out = run(argv)
    assert (code, json.loads(out)["error"]) == (EXIT_VALIDATION, "ValueError")


@pytest.mark.parametrize("argv, message", [
    (["index", "--kind", "ac", "--end", "hl:x"], "number 'x' is not a number"),
    (["indicial", "--cone", "hl", "--window", "abc:1"], "number 'abc' is not a number"),
    (["stability", "--cone", "torus:1,x,1"], "number 'x' is not a number"),
    (["lawlor", "angles", "--a", "1,,1"], "number '' is not a number"),
    # integer literals: one rule names the flag
    (["stability", "--cone", "hl", "--sym-dim", "x"], "--sym-dim 'x' is not an integer"),
    (["stability", "--cone", "hl", "--sym-dim="], "--sym-dim '' is not an integer"),
    (["stability", "--cone", "plane-pair", "--sym-dim", "6,x"], "--sym-dim 'x' is not an integer"),
    (["stability", "--cone", "plane-pair", "--stratum-dim", "1.5"],
     "--stratum-dim '1.5' is not an integer"),
    (["spectrum", "mesh", "--builtin", "clifford:x"], "--builtin 'x' is not an integer"),
    (["spectrum", "mesh", "--builtin", "clifford:1e3"], "--builtin '1e3' is not an integer"),
    (["spectrum", "mesh", "--builtin", "icosphere:2.0"], "--builtin '2.0' is not an integer"),
], ids=["end-rate", "window", "torus-metric", "lawlor-a", "sym-dim", "sym-dim-empty",
        "sym-dim-list", "stratum-dim", "builtin-clifford", "builtin-exponent", "builtin-icosphere"])
def test_non_numeric_literal_is_a_validation_error(argv, message):
    code, out = run(argv)
    assert (code, json.loads(out)) == (EXIT_VALIDATION, {"error": "ValidationError", "message": message})


@pytest.mark.parametrize("text, value", [
    ("1_0.5", Fraction(21, 2)),
    ("١٢", Fraction(12)),  # Unicode digits
    ("1e-400", Fraction(1, 10**400)),
    (" 3 ", Fraction(3)),
    ("+.5e-3", Fraction(1, 2000)),
])
def test_number_literals_parse_to_exact_fractions(text, value):
    parsed = cli._parse_number(text)
    assert type(parsed) is Fraction and parsed == value


def test_every_float_literal_parses_exactly():
    # a float's exact decimal, subnormals included, needs no exponent past 1074
    for x in (5e-324, 2.2250738585072014e-308, 0.1, 1.7976931348623157e308):
        k = Fraction(x).denominator.bit_length() - 1  # x = numerator / 2^k
        for text in (str(Decimal(x)), f"{Fraction(x).numerator * 5**k}e-{k}"):
            assert cli._parse_number(text) == Fraction(x)


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "1e999999999"])
def test_literal_exponents_are_bounded_before_the_fraction_is_built(text):
    start = time.perf_counter()
    code, out = run(["index", "--kind", "ac", "--end", f"hl:{text}"])
    assert time.perf_counter() - start < 1.0
    message = f"number '{text}' has a decimal exponent outside [-10000, 10000]"
    assert (code, json.loads(out)) == (EXIT_VALIDATION, {"error": "ValidationError", "message": message})


@pytest.mark.parametrize("text", ["inf", "-Infinity", "nan", "1e400"])
def test_non_finite_rate_literal_is_a_validation_error(text):
    code, out = run(["index", "--kind", "ac", "--end", f"hl:{text}"])
    assert (code, json.loads(out)["error"]) == (EXIT_VALIDATION, "ValidationError")


def test_non_finite_literal_messages():
    # inf and nan are no rational, so no number; 1e400 is one, past float range
    for text, why in [("inf", "is not a number"), ("-Infinity", "is not a number"),
                      ("nan", "is not a number"), ("1e400", "is not a finite float")]:
        _, out = run(["index", "--kind", "ac", "--end", f"hl:{text}"])
        assert json.loads(out)["message"] == f"number '{text}' {why}"


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ncutoff = 7\nwindow = -2:1\n")
    code, out = run(["--config", str(cfg), "indicial", "--cone", "hl"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"]["cutoff"] == 7.0
    assert report["config"]["window"] == "-2:1"
    # explicit flags beat the config file
    code, out = run(
        ["--config", str(cfg), "indicial", "--cone", "hl", "--window", "[0:1]"]
    )
    assert json.loads(out)["config"]["window"] == "[0:1]"
    # so does a unique prefix of a flag
    code, out = run(["--config", str(cfg), "indicial", "--cone", "hl", "--cut", "8"])
    assert json.loads(out)["config"]["cutoff"] == 8.0
    cfg.write_text("morse = TRUE\njacobi = false\nseed = 5\n")
    code, out = run(["--config", str(cfg), "indicial", "--cone", "hl"])
    config = json.loads(out)["config"]
    assert (code, config["morse"], config["jacobi"], config["seed"]) == (EXIT_OK, True, False, 5)
    cfg.write_text("end = plane-pair:-1.5\n")
    code, out = run(["--config", str(cfg), "index", "--kind", "ac"])
    assert json.loads(out)["config"]["end"] == ["plane-pair:-1.5"]
    code, out = run(["--config", str(cfg), "index", "--kind", "ac", "--end", "hl:-0.9"])
    assert json.loads(out)["config"]["end"] == ["hl:-0.9"]


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("command = g2", ["spectrum", "sphere"]),  # not an option flag
        ("mode = mesh", ["spectrum", "sphere", "--builtin", "icosphere:1"]),  # nor a positional
        ("morse = ture", ["indicial", "--cone", "hl"]),  # true or false only
        ("cutoff = twelve", ["indicial", "--cone", "hl"]),  # typed by the parser
        ("output_format = xml", ["indicial", "--cone", "hl"]),  # choices checked
        ("help = true", ["indicial", "--cone", "hl"]),
    ],
)
def test_config_bad_entry_exits_2(tmp_path, entry, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    code, out = run(["--config", str(cfg), *argv])
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"] == "ValidationError"


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    code, out = run(["--config", str(cfg), "indicial", "--cone", "hl"])
    assert code == EXIT_VALIDATION
    assert "frobnicate" in json.loads(out)["message"]


def test_window_parsing():
    w = parse_window("(-1:1]")
    assert not w.include_lo and w.include_hi
    assert w.lo == Fraction(-1) and w.hi == Fraction(1)
    w = parse_window("-2:0.5")
    assert w.include_lo and w.include_hi
    assert w.hi == Fraction(1, 2)


def test_planes_subcommand():
    third = repr(math.pi / 3)
    code, out = run(["planes", "--theta", f"{third},{third},{third}"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["associative"] == [True, True]
    assert result["splitting_dimensions"] == [1, 3, 3]


def test_user_table_cone(tmp_path):
    table = tmp_path / "cone.json"
    table.write_text(
        json.dumps(
            {
                "rows": [
                    {"lambda": -1, "dimension": 2},
                    {"lambda": 0, "dimension": 7.0},  # an integral float reads as 7
                    {"lambda": 1, "dimension": 12},
                ],
                "coverage": [-3, 3],
            }
        )
    )
    code, out = run(["stability", "--cone", f"table:{table}", "--sym-dim", "2"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["s_ind"] == "1" and result["rigid"] is True
    code, out = run(["index", "--kind", "ac", "--end", f"table:{table}:-0.5"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["index"] == 1


# each cone source of --cone and --end, and the provenance it prints verbatim
PROVENANCE = {
    "hl": "Harvey-Lawson T^2-cone, Clifford-torus link, H = U(1)^2",
    "plane": "special Lagrangian 3-plane, totally geodesic S^2 link, H = SO(4)",
    "plane-pair": "transverse pair of SL planes (two S^2 link components)",
    "torus:1,0,1": "synthetic flat-torus link (user metric)",
    "table:{table}": "user-supplied d-lambda table",
}


def test_each_cone_source_prints_its_provenance(tmp_path):
    table = tmp_path / "cone.json"
    table.write_text(json.dumps({"rows": [{"lambda": 0, "dimension": 7}], "coverage": [-3, 3]}))
    sources = {name.format(table=table): text for name, text in PROVENANCE.items()}
    for name, text in sources.items():
        for command in ("indicial", "stability"):
            code, out = run([command, "--cone", name])
            if command == "indicial" and name.startswith("table:"):
                assert (code, json.loads(out)) == (EXIT_VALIDATION, {
                    "error": "ValidationError", "message": f"cone source '{name}' has no link spectrum",
                })
                continue
            assert code == EXIT_OK, out
            assert json.loads(out)["provenance"] == text, (command, name)
    ends = [tok for name in sources for tok in ("--end", f"{name}:-0.5")]
    code, out = run(["index", "--kind", "ac", *ends])
    assert code == EXIT_OK, out
    assert json.loads(out)["provenance"] == list(sources.values())


UNKNOWN_CONE = "unknown cone source '{}' (use hl, plane, plane-pair, torus:<g11,g12,g22>, table:<path.json>)"


@pytest.mark.parametrize("argv, message", [
    (["stability", "--cone", "hl:"], UNKNOWN_CONE.format("hl:")),
    (["indicial", "--cone", "torus"], UNKNOWN_CONE.format("torus")),
    (["stability", "--cone", "torus:"], "'' must hold three comma-separated numbers"),
    (["stability", "--cone", "foo"], UNKNOWN_CONE.format("foo")),
    (["index", "--kind", "ac", "--end", "foo:-0.9"], UNKNOWN_CONE.format("foo")),
    (["index", "--kind", "ac", "--end", "hl"], "--end 'hl' must look like PRESET:RATE"),
], ids=["hl-colon", "torus", "torus-colon", "foo", "end-foo", "end-no-rate"])
def test_unknown_cone_source_message(argv, message):
    code, out = run(argv)
    assert (code, json.loads(out)) == (EXIT_VALIDATION, {"error": "ValidationError", "message": message})


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "1e400", "1.5", "true", '"7"'])
def test_table_dimension_must_be_integral(tmp_path, text):
    # a dimension that is not an integral number is invalid input, not 1 or a traceback
    table = tmp_path / "cone.json"
    table.write_text('{"rows": [{"lambda": 0, "dimension": %s}], "coverage": [-3, 3]}' % text)
    code, out = run(["stability", "--cone", f"table:{table}"])
    assert (code, json.loads(out)["error"]) == (EXIT_VALIDATION, "ValidationError")


def test_hl_subcommands():
    code, out = run(["hl", "xi-relation", "--r", "50"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["residual"] < 1e-3
    assert abs(result["single_branch_deviation"] - 0.01) < 2e-4
    code, out = run(["hl", "xi-relation", "--r", "50", "--a", "4"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert abs(result["single_branch_deviation"] - (math.sqrt(2504) - 50)) < 1e-12
    # the closed form neither squares r nor cancels: finite and a / (2 r) far out
    code, out = run(["hl", "xi-relation", "--r", "1e200"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["single_branch_deviation"] == pytest.approx(5e-201)
    code, out = run(["hl", "verify", "--branch", "1", "--samples", "40"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["branch_1"]["max_im_omega"] < 1e-6


def _g2_check_per_tuple(tuples, seed):
    """The per-tuple loop of `g2 check` before batching (the reference)."""
    rng = np.random.default_rng(seed)
    worst_identity = worst_ortho = worst_norm = worst_psi = 0.0
    for _ in range(tuples):
        u, v, w, z = rng.normal(size=(4, 7))
        u, v, w, z = (x / np.linalg.norm(x) for x in (u, v, w, z))
        worst_identity = max(worst_identity, abs(g2.g2_identity_residual(u, v)))
        cr = g2.cross(u, v)
        worst_ortho = max(worst_ortho, abs(float(np.dot(cr, u))), abs(float(np.dot(cr, v))))
        gram = np.array([u, v, w]) @ np.array([u, v, w]).T
        assoc = g2.associator(u, v, w)
        rhs = g2.phi3(u, v, w) ** 2 + float(np.dot(assoc, assoc))
        worst_norm = max(worst_norm, abs(float(np.linalg.det(gram)) - rhs))
        worst_psi = max(worst_psi, abs(g2.psi4(u, v, w, z) - float(np.dot(assoc, z))))
    return {
        "tuples": tuples,
        "max_g2_identity_residual": worst_identity,
        "max_cross_orthogonality": worst_ortho,
        "max_associator_norm_identity": worst_norm,
        "max_psi_defect": worst_psi,
    }


@pytest.mark.parametrize("seed", [0, 5])
def test_g2_check_matches_per_tuple_loop(seed):
    code, out = run(["g2", "check", "--tuples", "300", "--seed", str(seed)])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    reference = _g2_check_per_tuple(300, seed)
    assert result.keys() == reference.keys() and result["tuples"] == 300
    for key in reference:
        assert abs(result[key] - reference[key]) <= 1e-14, key


def test_g2_check_evaluates_identity_once(monkeypatch):
    calls = []
    residual = g2.g2_identity_residual

    def counted(u, v):
        calls.append(np.shape(u))
        return residual(u, v)

    monkeypatch.setattr(g2, "g2_identity_residual", counted)
    code, _ = run(["g2", "check", "--tuples", "1000"])
    assert code == EXIT_OK
    assert calls == [(1000, 7)]


@pytest.mark.parametrize(
    "argv, bound, name",
    [
        (["hl", "verify", "--samples"], MAX_SAMPLES, "MAX_SAMPLES"),
        (["lawlor", "verify", "--a", "1,1,1", "--samples"], MAX_SAMPLES, "MAX_SAMPLES"),
        (["g2", "check", "--tuples"], MAX_TUPLES, "MAX_TUPLES"),
        (["lawlor", "profile", "--a", "1,1,1", "--count"], MAX_PROFILE_ROWS, "MAX_PROFILE_ROWS"),
        (["spectrum", "mesh", "--builtin", "icosphere:1", "--count"], MAX_MESH_COUNT,
         "MAX_MESH_COUNT"),
    ],
)
def test_batch_sizes_are_bounded(argv, bound, name):
    # rejected before any array is built, so these calls allocate nothing
    for value in (bound + 1, 10**12):
        code, out = run([*argv, str(value)])
        assert code == EXIT_VALIDATION
        body = json.loads(out)
        assert body["error"] == "ValidationError" and name in body["message"]


def _record_mesh_calls(monkeypatch):
    """Builders and mesh_spectrum that record their arguments; the builders
    return a small mesh, so no oversize mesh is built or solved."""
    calls = []
    small = mesh.icosphere(0)

    def builder(name):
        return lambda n: calls.append((name, n)) or small

    monkeypatch.setattr(mesh, "icosphere", builder("icosphere"))
    monkeypatch.setattr(mesh, "clifford_torus_mesh", builder("clifford"))
    monkeypatch.setattr(mesh, "mesh_spectrum",
                        lambda m, count: calls.append(("spectrum", count)) or
                        Spectrum(entries=((0.0, 1),), cutoff=0.0))
    return calls


def test_mesh_size_budget_on_builtins(monkeypatch):
    calls = _record_mesh_calls(monkeypatch)
    side = math.isqrt(MAX_MESH_VERTICES)  # the largest Clifford grid inside the budget
    assert 10 * 4**5 + 2 <= MAX_MESH_VERTICES < 10 * 4**6 + 2
    for builtin, built in (("icosphere:5", ("icosphere", 5)), (f"clifford:{side}", ("clifford", side))):
        calls.clear()
        code, _ = run(["spectrum", "mesh", "--builtin", builtin, "--count", str(MAX_MESH_COUNT)])
        assert code == EXIT_OK and calls == [built, ("spectrum", MAX_MESH_COUNT)]
    for argv in (
        ["--builtin", "icosphere:6"],
        ["--builtin", f"clifford:{side + 1}"],
        ["--builtin", "icosphere:1000000000"],
        ["--builtin", f"clifford:{10**400}"],
    ):
        calls.clear()
        code, out = run(["spectrum", "mesh", *argv])
        body = json.loads(out)
        assert code == EXIT_VALIDATION and calls == []
        assert body["error"] == "ValidationError"
        assert "--builtin" in body["message"] and "MAX_MESH_VERTICES" in body["message"]


def test_mesh_size_budget_on_off_files(monkeypatch, tmp_path):
    off = tmp_path / "ico0.off"
    mesh.save_off(mesh.icosphere(0), off)  # 12 vertices
    argv = ["spectrum", "mesh", "--off", str(off), "--count", "3"]
    monkeypatch.setattr(cli, "MAX_MESH_VERTICES", 12)
    assert run(argv)[0] == EXIT_OK
    monkeypatch.setattr(cli, "MAX_MESH_VERTICES", 11)
    code, out = run(argv)
    body = json.loads(out)
    assert code == EXIT_VALIDATION and body["error"] == "ValidationError"
    assert "--off" in body["message"] and "MAX_MESH_VERTICES = 11" in body["message"]


def test_jacobi_counts_a_self_partnered_float_root_once():
    # the metric is exact, so the root -1/2 + 1.25e-12 is exact too, and its
    # partner -1/2 - 1.25e-12 is no root: multiplicity 2, not 4 (the float
    # twin, a root within MERGE_TOL of its own partner, is in test_indicial)
    code, out = run(["indicial", "--cone", "torus:400000000000/300000000001,0,1",
                     "--window", "(-1:0)", "--jacobi", "--cutoff", "6"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert {"lambda": -0.4999999999987501, "dimension": 2} in result["roots"]
    (entry,) = [e for e in result["jacobi"]["entries"] if e["eigenvalue"] == -2.25]
    assert entry["multiplicity"] == 2
    assert entry["contributing_rates"] == [-0.4999999999987501]


def test_overflowing_profile_is_quiet_on_stderr():
    # the squares overflow to inf: exit 3 with the JSON body, and no numpy warning
    src = str(Path(cone_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "cone_spectra", "lawlor", "profile", "--a", "1,1,1",
         "--y-max", "1e200", "--count", "3"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_NUMERICAL
    assert json.loads(done.stdout) == {
        "error": "NonFiniteResult", "message": "Out of range float values are not JSON compliant",
    }
    assert done.stderr == ""


NUMBERS = ["-2", "1", "0", "-1", "-1/2", "7/3", "0.25", "-3.75", "1e300", "-1e400", "inf",
           "-inf", "nan", "1/0", "abc", ""]
CONES = ["hl", "plane", "plane-pair", "torus:1,0,1", "torus:2/3,1/3,2/3", "torus:1,2,1",
         "torus:1e400,0,1", "torus:nan,0,1", "torus:1,0", "nope", "table:missing.json", "hl:",
         "torus"]
CUTOFFS = st.one_of(
    st.floats(min_value=0.5, max_value=30.0).map(repr),
    st.sampled_from(["inf", "nan", "0", "-1", "1e300", "6", "12"]),
)
NUMBER = st.one_of(st.sampled_from(NUMBERS), st.floats(-5.0, 3.0).map(repr))
WINDOWS = st.builds(
    lambda lo_b, lo, hi, hi_b: f"{lo_b}{lo}:{hi}{hi_b}",
    st.sampled_from(["", "[", "("]), NUMBER, NUMBER, st.sampled_from(["", "]", ")"]),
) | st.text(max_size=6)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["indicial", "stability", "index", "torus", "sphere", "mesh"]))
    cutoff = ["--cutoff", draw(CUTOFFS)]
    if command == "indicial":
        flags = draw(st.lists(st.sampled_from(["--morse", "--jacobi", "--symmetry"]), unique=True))
        return ["indicial", "--cone", draw(st.sampled_from(CONES)),
                f"--window={draw(WINDOWS)}", *cutoff, *flags]
    if command == "stability":
        return ["stability", "--cone", draw(st.sampled_from(CONES)), *cutoff,
                "--sym-dim", draw(st.sampled_from(["2", "6", "6,6", "15", "x"]))]
    if command == "index":
        argv = ["index", "--kind", draw(st.sampled_from(["ac", "cs"])), *cutoff,
                "--end", f"{draw(st.sampled_from(CONES))}:{draw(NUMBER)}"]
        if draw(st.booleans()):
            argv.append(f"--cross={draw(NUMBER)}:{draw(NUMBER)}")
        return argv
    if command == "torus":
        metrics = ["1,0,1", "2/3,1/3,2/3", "1,2,1", "1e400,0,1", "0.7,0.1,1.3"]
        return ["spectrum", "torus", "--metric", draw(st.sampled_from(metrics)), *cutoff]
    if command == "mesh":
        builtins = ["icosphere", "clifford", "icosphere:x", "clifford:1e3", "torus:2"]
        builtins += [f"{kind}:{n}" for kind in ("icosphere", "clifford") for n in range(4)]
        return ["spectrum", "mesh", "--builtin", draw(st.sampled_from(builtins)), "--count", "3"]
    return ["spectrum", "sphere", *cutoff]


# batch-size flags, each fuzzed with {-1, 0, 1, 7, bound + 1, 10^12}
BATCH_FLAGS = {
    "hl-verify": (["hl", "verify", "--samples"], MAX_SAMPLES),
    "lawlor-verify": (["lawlor", "verify", "--a", "1,1,1", "--samples"], MAX_SAMPLES),
    "g2": (["g2", "check", "--tuples"], MAX_TUPLES),
    "profile": (["lawlor", "profile", "--a", "1,1,1", "--count"], MAX_PROFILE_ROWS),
    "mesh": (["spectrum", "mesh", "--builtin", "icosphere:1", "--count"], MAX_MESH_COUNT),
}
BATCH_VALUES = ["-1", "0", "1", "7", str(MAX_SAMPLES + 1), str(MAX_TUPLES + 1),
                str(MAX_PROFILE_ROWS + 1), str(10**12)]


@pytest.mark.parametrize("name", sorted(BATCH_FLAGS))
def test_batch_size_zero_is_rejected(name):
    argv, _bound = BATCH_FLAGS[name]
    code, out = run([*argv, "0"])
    assert code == EXIT_VALIDATION
    body = json.loads(out)
    assert body["error"] == "ValidationError" and argv[-1] in body["message"]


def test_largest_batch_stays_under_memory_budget():
    # the MAX_SAMPLES and mesh bounds promise < 200 MB peak RSS.  A fresh
    # process reads its own high-water mark from VmHWM: its ru_maxrss would
    # also hold the RSS this test process had when it started the child
    child = (
        "import sys\n"
        "from cone_spectra.cli import run\n"
        "code, _ = run(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(code, hwm)\n"
    )
    src = str(Path(cone_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (
        ["lawlor", "verify", "--a", "1,1,1", "--samples", str(MAX_SAMPLES)],
        # the largest icosphere inside MAX_MESH_VERTICES
        ["spectrum", "mesh", "--builtin", "icosphere:5", "--count", str(MAX_MESH_COUNT)],
        # the largest Clifford torus inside MAX_MESH_VERTICES
        ["spectrum", "mesh", "--builtin", "clifford:141", "--count", str(MAX_MESH_COUNT)],
    ):
        done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, max_rss_kb = map(int, done.stdout.split())
        assert code == EXIT_OK
        assert max_rss_kb / 1024 < 200.0, argv


@st.composite
def _batch_argv(draw):
    argv, bound = BATCH_FLAGS[draw(st.sampled_from(sorted(BATCH_FLAGS)))]
    return [*argv, str(draw(st.sampled_from([-1, 0, 1, 7, bound + 1, 10**12])))]


# user d-tables: well-formed bodies with fuzzed entries, and malformed JSON
TABLE_VALUES = st.one_of(
    st.sampled_from(NUMBERS), st.integers(-3, 9), st.floats(-4.0, 4.0), st.none(),
    st.sampled_from([[], {}, True, 10**12, float("inf")]),
)
TABLE_BODIES = st.one_of(
    st.builds(
        lambda rows, coverage: json.dumps({"rows": rows, "coverage": coverage}),
        st.lists(st.fixed_dictionaries({"lambda": TABLE_VALUES, "dimension": TABLE_VALUES})
                 | TABLE_VALUES, max_size=4),
        st.lists(TABLE_VALUES, max_size=3) | TABLE_VALUES,
    ),
    st.sampled_from(["", "{", "[]", "null", '{"rows": 3}', '{"rows": [], "coverage": [1]}']),
)
TABLE_CONE = "table:{dir}/table.json"

# config files: entries for any subcommand's flags, with any of the fuzzed values
CONFIG_KEYS = ["cone", "cutoff", "window", "morse", "samples", "tuples", "count", "seed", "a",
               "sym_dim", "kind", "end", "output_format", "help", "nope"]
CONFIG_ENTRIES = st.builds(
    "{} = {}".format,
    st.sampled_from(CONFIG_KEYS),
    st.sampled_from(NUMBERS + CONES + BATCH_VALUES + ["true", "false", "1,1,1", "hl:-0.9"]),
) | st.sampled_from(["# comment", "", "no value", "=", " = 3"])


# numeric flags at the edge of float range, and decay radii deep inside the
# Lawlor neck (all footpoint radii ~ 1/sqrt(a)), with the exit code of each
EDGE_ARGV = {
    ("hl", "xi-relation", "--r", "1e200"): EXIT_OK,
    ("lawlor", "profile", "--a", "1,1,1", "--y-min", "nan"): EXIT_VALIDATION,
    ("lawlor", "decay", "--a", "1,2,3", "--r-min", "-1"): EXIT_VALIDATION,
    ("lawlor", "decay", "--a", "1,2,3", "--r-max", "inf"): EXIT_VALIDATION,
    ("lawlor", "decay", "--a", "1,2,3", "--r-min", "1e200", "--r-max", "1e201"): EXIT_NUMERICAL,
    ("lawlor", "decay", "--a", "1,2,3", "--r-min", "1e103", "--r-max", "1e104",
     "--subtract"): EXIT_NUMERICAL,
    ("lawlor", "angles", "--a", "1e-300,1,1"): EXIT_VALIDATION,
    ("lawlor", "angles", "--a", "1e300,1e300,1e300"): EXIT_VALIDATION,
    # e3 = a1 a2 a3 underflows to 0 or overflows to inf: LawlorParams rejects a
    ("lawlor", "angles", "--a", "1e-200,1e-200,1e-200"): EXIT_VALIDATION,
    ("lawlor", "angles", "--a", "1e120,1e120,1e120"): EXIT_VALIDATION,
    ("lawlor", "verify", "--a", "1e120,1e120,1e120", "--samples", "20"): EXIT_VALIDATION,
    ("lawlor", "decay", "--a", "1,2,3", "--r-min", "1e-300", "--r-max", "1e-299"): EXIT_NUMERICAL,
    ("lawlor", "decay", "--a", "1,2,3", "--r-min", "1e-16", "--r-max", "1e-15"): EXIT_NUMERICAL,
}


@pytest.mark.parametrize("argv", sorted(EDGE_ARGV))
def test_numeric_flags_at_float_range_edges(argv):
    # each ends in its exit code with a JSON body, and without any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(list(argv))
    assert code == EDGE_ARGV[argv], out
    body = json.loads(out)
    if code == EXIT_NUMERICAL and argv[1] == "decay":
        assert body["error"] == "FitUnstable"


# numeric model flags with values outside their domains
MODEL_ARGV = st.one_of(
    st.builds(lambda b: ["hl", "decay", "--branch", str(b)],
              st.sampled_from([-2, 0, 3, 4, 10**12])),
    st.builds(lambda argv, a: [*argv, "--a", a],
              st.sampled_from([["hl", "decay"], ["hl", "xi-relation", "--r", "50"]]),
              st.sampled_from(["-1", "0", "0.25", "1e300", "inf", "nan"])),
    st.builds(lambda scale: ["lawlor", "solve", "--theta", "0.9,1.1,1.1415926535897931",
                             "--scale", scale],
              st.sampled_from(["-1", "0", "1e-10", "1", "1e300", "inf", "nan"])),
    st.sampled_from(sorted(EDGE_ARGV)).map(list),
)


@st.composite
def _case(draw):
    """(argv, files): the files, written to a fresh directory, replace {dir}."""
    kind = draw(st.sampled_from(["exact", "exact", "batch", "table", "config", "model"]))
    if kind == "exact":
        return draw(_argv()), {}
    if kind == "batch":
        return draw(_batch_argv()), {}
    if kind == "model":  # no warning of any kind may escape these
        return draw(MODEL_ARGV), {}, "strict"
    if kind == "table":
        argv = draw(st.sampled_from([
            ["stability", "--cone", TABLE_CONE],
            ["indicial", "--cone", TABLE_CONE],
            ["index", "--kind", "ac", "--end", f"{TABLE_CONE}:-0.5"],
        ]))
        return argv, {"table.json": draw(TABLE_BODIES)}
    argv = draw(_argv() | _batch_argv())
    entries = draw(st.lists(CONFIG_ENTRIES, max_size=4))
    return ["--config", "{dir}/run.cfg", *argv], {"run.cfg": "\n".join(entries) + "\n"}


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


# what Python's int() and float() say about a literal they cannot parse: an
# exit-2 body that carries it names no flag
RAW_PARSE_MESSAGES = ("invalid literal for int()", "could not convert string to float")


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(_case())
# integer literals that Python's int() rejects, drawn every run
@example(case=(["stability", "--cone", "hl", "--sym-dim", "x"], {}))
@example(case=(["spectrum", "mesh", "--builtin", "clifford:1e3"], {}))
def test_cli_contract_property(tmp_path_factory, case):
    # every input ends in a documented exit code with strictly valid JSON
    argv, files, *strict = case
    work = tmp_path_factory.mktemp("contract")
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    argv = [tok.replace("{dir}", str(work)) for tok in argv]
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        code, out = run(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_USAGE), (argv, files, out)
    body = json.loads(out, parse_constant=_reject_constant)
    if code == EXIT_VALIDATION:
        assert not any(raw in body["message"] for raw in RAW_PARSE_MESSAGES), (argv, files, out)
