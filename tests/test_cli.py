"""CLI adapter checks: exit codes, determinism, config handling, parity."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_spectra
from cone_spectra import cli, g2, mesh, presets, stability
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
from cone_spectra.geometry import LawlorParams, lawlor_angles
from cone_spectra.spectra import Spectrum


def test_indicial_example():
    code, out = run(["indicial", "--cone", "hl", "--window", "-2:1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert {"lambda": 0.0, "dimension": 7} in report["result"]["roots"]
    assert report["tool"] == "cone-spectra"
    assert "version" in report and "config" in report
    assert "Harvey-Lawson" in report["provenance"]


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
    # malformed d-table JSON: missing keys, or a list at the top level
    for i, body in enumerate((
        {"rows": [{"lambda": 0}], "coverage": [-3, 3]},
        {"rows": [{"lambda": 0, "dimension": 7}]},
        [{"lambda": 0, "dimension": 7}],
    )):
        table = tmp_path / f"bad{i}.json"
        table.write_text(json.dumps(body))
        code, out = run(["stability", "--cone", f"table:{table}"])
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValidationError"
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
    ):
        code, out = run(argv)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "ValidationError"
    # negative refinements check nothing
    for argv in (
        ["spectrum", "mesh", "--builtin", "icosphere:-1"],
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
                    {"lambda": 0, "dimension": 7},
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


def test_hl_subcommands():
    code, out = run(["hl", "xi-relation", "--r", "50"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["residual"] < 1e-3
    assert abs(result["single_branch_deviation"] - 0.01) < 2e-4
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
                        Spectrum(entries=((0.0, 1),), cutoff=0.0, exact=False))
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
         "torus:1e400,0,1", "torus:nan,0,1", "torus:1,0", "nope", "table:missing.json"]
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
    command = draw(st.sampled_from(["indicial", "stability", "index", "torus", "sphere"]))
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
    # the MAX_SAMPLES bound promises < 200 MB peak RSS; a fresh process
    # reports its own high-water mark
    child = (
        "import resource, sys\n"
        "from cone_spectra.cli import run\n"
        "code, _ = run(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(cone_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["lawlor", "verify", "--a", "1,1,1", "--samples", str(MAX_SAMPLES)]
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, max_rss_kb = map(int, done.stdout.split())
    assert code == EXIT_OK
    assert max_rss_kb / 1024 < 200.0


@st.composite
def _batch_argv(draw):
    argv, bound = BATCH_FLAGS[draw(st.sampled_from(sorted(BATCH_FLAGS)))]
    return [*argv, str(draw(st.sampled_from([-1, 0, 1, 7, bound + 1, 10**12])))]


# user d-tables: well-formed bodies with fuzzed entries, and malformed JSON
TABLE_VALUES = st.one_of(
    st.sampled_from(NUMBERS), st.integers(-3, 9), st.floats(-4.0, 4.0), st.none(),
    st.sampled_from([[], {}, True, 10**12]),
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


@st.composite
def _case(draw):
    """(argv, files): the files, written to a fresh directory, replace {dir}."""
    kind = draw(st.sampled_from(["exact", "exact", "batch", "table", "config"]))
    if kind == "exact":
        return draw(_argv()), {}
    if kind == "batch":
        return draw(_batch_argv()), {}
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


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(_case())
def test_cli_contract_property(tmp_path_factory, case):
    # every input ends in a documented exit code with strictly valid JSON
    argv, files = case
    work = tmp_path_factory.mktemp("contract")
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    argv = [tok.replace("{dir}", str(work)) for tok in argv]
    code, out = run(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_USAGE), (argv, files, out)
    json.loads(out, parse_constant=_reject_constant)
