"""cli-readme: every README CLI example as a fresh ``python -m cone_spectra``.

The examples run in whole cycles, each cycle in a seeded order, so every
run holds the same mix of commands and the percentiles fall inside command
classes.  ``spectrum mesh --off link.off`` reads an icosphere written during
set-up (the children run in the work directory, so the README line works
as written).  Each call is timed from spawn to the end of its output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

from scipy.integrate import quad

from common import BENCH_DIR, child_env, cycles_fit, median, run_worker
from numeric_sweep import mult_matches
from tracer import merge_summaries

CALL_TIMEOUT_S = 60.0
WARMUP = "spectrum sphere --cutoff 6"
THIRD_PI = math.pi / 3.0

# every README example; the exact ones must print byte-identical JSON on rerun
COMMANDS = (
    ("spectrum torus --metric 2/3,1/3,2/3 --cutoff 7", True),
    ("spectrum sphere --cutoff 6", True),
    ("spectrum mesh --off link.off --count 9", False),
    ("indicial --cone hl --window -2:1 --morse --jacobi --symmetry", True),
    ("stability --cone hl --sym-dim 2", True),
    ("stability --cone plane-pair --sym-dim 6", True),
    ("index --kind ac --end hl:-0.9 --cross -0.9:0.5", True),
    ("lawlor angles --a 1,1,1", False),
    ("lawlor solve --theta 0.9,1.1,1.1415926535897931 --scale 1.0", False),
    ("lawlor profile --a 1,1,1 --y-min -5 --y-max 5 --count 101 --output-format csv", False),
    ("lawlor verify --a 1,1,1 --samples 500 --seed 0", False),
    ("lawlor decay --a 2.5,0.7,1.3 --subtract", False),
    ("hl verify --branch 0 --samples 500", False),
    ("hl xi-relation --r 50", False),
    ("g2 check --tuples 1000", False),
    ("planes --theta 0.9,1.1,1.1415926535897931", False),
)
SPHERE_REFERENCE = [(0, 1), (2, 3), (6, 5)]


# ---------------------------------------------------------------------------
# output checks (independent of cone_spectra)
# ---------------------------------------------------------------------------

def _lawlor_theta(a) -> list[float]:
    """Lawlor angles by scipy quadrature: an oracle independent of the package."""
    e1 = a[0] + a[1] + a[2]
    e2 = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
    e3 = a[0] * a[1] * a[2]
    out = []
    for ak in a:
        f = lambda x, ak=ak: ak / ((1 + ak * x * x) * math.sqrt(e1 + e2 * x * x + e3 * x**4))
        out.append(quad(f, -math.inf, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0])
    return out


def _dims(rows) -> dict:
    return {float(r["lambda"]): r["dimension"] for r in rows}


def _expanded(entries) -> list[float]:
    return [e["eigenvalue"] for e in entries for _ in range(e["multiplicity"])]


def _near(x, y, tol) -> bool:
    return abs(x - y) < tol


def check_output(command: str, text: str) -> list[str]:
    """Failures found in one command's output (empty when it is correct)."""
    words = command.split()
    if "--output-format" in words:
        rows = list(csv.DictReader(io.StringIO(text)))
        ys = [float(r["y"]) for r in rows]
        if len(rows) != 101 or not (_near(ys[0], -5, 1e-12) and _near(ys[-1], 5, 1e-12)):
            return ["profile rows"]
        bad = []
        for k in (1, 2, 3):
            theta = [float(r[f"theta{k}"]) for r in rows]
            if theta != sorted(theta) or not _near(theta[50], THIRD_PI / 2, 1e-6):
                bad.append(f"profile theta{k}")
            z = [float(r[f"z{k}"]) for r in rows]
            if max(abs(zi - math.sqrt(1 + y * y)) for zi, y in zip(z, ys)) > 1e-12:
                bad.append(f"profile z{k}")
        return bad
    res = json.loads(text)["result"]
    head = " ".join(words[:2])
    ok = True
    if head == "spectrum torus":
        ok = res["exact"] and [(e["eigenvalue"], e["multiplicity"]) for e in res["entries"]] == [
            (0, 1), (2, 6), (6, 6)
        ]
    elif head == "spectrum sphere":
        ok = res["exact"] and [
            (e["eigenvalue"], e["multiplicity"]) for e in res["entries"]
        ] == SPHERE_REFERENCE
    elif head == "spectrum mesh":
        got = _expanded(res["entries"])
        want = [float(ev) for ev, m in SPHERE_REFERENCE for _ in range(m)]
        ok = len(got) == 9 and abs(got[0]) < 1e-6 and all(
            abs(g - w) / w < 0.05 for g, w in zip(got[1:], want[1:])
        )
    elif words[0] == "indicial":
        dims = _dims(res["roots"])
        ok = res["morse_index"] == 9 and res["symmetric"] is True and (
            dims.get(-1.0), dims.get(0.0), dims.get(1.0)
        ) == (2, 7, 12)
    elif words[0] == "stability":
        dims = _dims(res["d_table"])
        want = (2, 7, 12) if "hl" in words else (0, 8, 16)
        ok = res["s_ind"] == "1" and res["rigid"] is True and tuple(
            dims.get(x, 0) for x in (-1.0, 0.0, 1.0)
        ) == want
    elif words[0] == "index":
        ok = res["index"] == 1 and res["wall_crossing"]["jump"] == 7
    elif head == "lawlor angles":
        ok = all(_near(t, THIRD_PI, 1e-8) for t in res["theta"]) and _near(
            res["sum"], math.pi, 1e-8
        )
    elif head == "lawlor solve":
        a = res["a"]
        scale = 4 * math.pi / (3 * math.sqrt(a[0] * a[1] * a[2]))
        ok = _near(scale, 1.0, 1e-6) and all(
            _near(t, want, 1e-6) for t, want in zip(_lawlor_theta(a), res["theta"])
        )
    elif head == "lawlor verify":
        ok = res["n_samples"] == 500 and max(
            res["max_omega"], res["max_im_omega"], res["max_associator"]
        ) < 1e-6
    elif head == "lawlor decay":
        ok = _near(res["fitted_exponent"], -4.0, 0.3)
    elif head == "hl verify":
        ok = res["link"]["max_omega"] < 1e-6 and all(
            max(res[f"branch_{b}"].values()) < 1e-6 for b in (1, 2, 3)
        )
    elif head == "hl xi-relation":
        ok = res["residual"] < 1e-3 and _near(
            res["single_branch_deviation"], math.sqrt(50.0**2 + 1.0) - 50.0, 1e-9
        )
    elif words[0] == "g2":
        ok = res["tuples"] == 1000 and max(
            v for k, v in res.items() if k.startswith("max_")
        ) < 1e-10
    elif words[0] == "planes":
        want = sorted(min(t, math.pi - t) for t in (0.9, 1.1, 1.1415926535897931))
        ok = res["associative"] == [True, True] and all(
            _near(x, y, 1e-8) for x, y in zip(res["jordan_angles"], want)
        )
    return [] if ok else [f"unexpected result {json.dumps(res)[:300]}"]


def mesh_clusters(text: str) -> list[int]:
    return [e["multiplicity"] for e in json.loads(text)["result"]["entries"]]


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

def call(argv: list[str], cwd: Path, env: dict):
    """Spawn one child; returns (exit code, stdout, seconds to output, max RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode()
        elapsed = time.perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, elapsed, usage.ru_maxrss


class CliRun:
    def __init__(self, root: Path, work_dir: Path):
        self.root, self.work_dir = root, work_dir
        self.env = child_env(root)
        self.first_output: dict[str, str] = {}
        self.failures: list[str] = []

    def setup(self) -> float:
        """Write the README's OFF file and make one warm-up call; returns seconds."""
        start = time.perf_counter()
        run_worker(
            self.root,
            "worker.py",
            ["--workload", "cli-readme", "--mode", "setup", "--work-dir", str(self.work_dir)],
        )
        code, out, _elapsed, _rss = call(self.plain(WARMUP), self.work_dir, self.env)
        if code != 0 or check_output(WARMUP, out.rstrip("\n")):
            raise RuntimeError(f"warm-up call failed: {out[:300]}")
        return time.perf_counter() - start

    def plain(self, command: str) -> list[str]:
        return [sys.executable, "-m", "cone_spectra", *shlex.split(command)]

    def traced(self, command: str) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "cli_child.py"), *shlex.split(command)]

    def judge(self, command: str, exact: bool, code: int, text: str) -> bool:
        """Check one call; records and returns whether it failed."""
        bad = [f"exit code {code}"] if code != 0 else []
        if not bad:
            try:
                bad = check_output(command, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                bad = [f"unparseable output: {exc!r}"]
        if not bad and exact:
            first = self.first_output.setdefault(command, text)
            if text != first:
                bad = ["exact JSON differs from the first run of the same command"]
        if bad:
            self.failures.append(f"{command}: {bad[0]}")
        return bool(bad)


def cycle(rng: random.Random) -> list[tuple[str, bool]]:
    order = list(COMMANDS)
    rng.shuffle(order)
    return order


def run_untraced(root: Path, work_dir: Path, seed: int, seconds: float, setups: int) -> dict:
    run = CliRun(root, work_dir)
    setup_times = [run.setup() for _ in range(setups)]
    rng = random.Random(seed)
    latencies: list[float] = []
    by_class: dict[str, list[float]] = {}
    attempted = failed = 0
    peak_kib = 0
    start = time.perf_counter()
    cycle_s = 0.0
    while attempted == 0 or cycles_fit(time.perf_counter() - start, cycle_s, seconds):
        cycle_start = time.perf_counter()
        for command, exact in cycle(rng):
            code, out, elapsed, rss = call(run.plain(command), work_dir, run.env)
            attempted += 1
            peak_kib = max(peak_kib, rss)
            if run.judge(command, exact, code, out.rstrip("\n")):
                failed += 1
            else:
                latencies.append(elapsed * 1000.0)
                by_class.setdefault(command, []).append(elapsed * 1000.0)
        cycle_s = time.perf_counter() - cycle_start
    measured = time.perf_counter() - start
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": run.failures,
        "setup_times": setup_times,
        "measured_s": measured,
        "peak_rss_mb": peak_kib / 1024.0,
        "latencies": latencies,
        "families": {"cli": latencies},
        "by_class": by_class,
    }


def run_traced(root: Path, work_dir: Path, seed: int, seconds: float) -> dict:
    """Alternate a traced pass (benchmark bootstrap) and a plain pass over one cycle."""
    run = CliRun(root, work_dir)
    run.setup()
    commands = cycle(random.Random(seed))
    passes: list[dict] = []
    overheads: list[float] = []
    attempted = failed = 0
    first_mesh: list[int] | None = None
    start = time.perf_counter()
    pair_s = 0.0
    while not passes or cycles_fit(time.perf_counter() - start, pair_s, seconds):
        pair_start = time.perf_counter()
        traced_s = plain_s = 0.0
        layers, imports = [], []
        output_bytes = 0
        for command, exact in commands:
            code, out, elapsed, _rss = call(run.traced(command), work_dir, run.env)
            attempted += 1
            record = json.loads(out.splitlines()[-1]) if code == 0 and out.strip() else None
            text = record["output"] if record else ""
            failed += run.judge(command, exact, record["code"] if record else code, text)
            traced_s += elapsed
            if record:
                layers.append(record["layers"])
                imports.append(record["import"])
                output_bytes += len(text.encode())
                if command.startswith("spectrum mesh") and first_mesh is None:
                    first_mesh = mesh_clusters(text)
        for command, exact in commands:
            code, out, elapsed, _rss = call(run.plain(command), work_dir, run.env)
            attempted += 1
            failed += run.judge(command, exact, code, out.rstrip("\n"))
            plain_s += elapsed
        summary = merge_summaries(layers)
        summary["cli.output_bytes"] = output_bytes
        for key in ("import.ms", "import.modules"):
            summary[key] = median([imp[key] for imp in imports]) if imports else 0
        scipy = [imp["import.scipy_loaded"] for imp in imports]
        summary["import.scipy_loaded"] = sum(scipy) / len(scipy) if scipy else 0
        passes.append(summary)
        overheads.append((traced_s - plain_s) * 1000.0 / len(commands))
        pair_s = time.perf_counter() - pair_start
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": run.failures,
        "passes": passes,
        "overhead_ms": median(overheads),
        "mesh_counts": [list(mult_matches(SPHERE_REFERENCE, first_mesh))] if first_mesh else [],
    }

