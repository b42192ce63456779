"""Helpers shared by the benchmark's parent process and its workers.

Nothing here imports cone_spectra, so the parent can run (and fail cleanly)
in a checkout that has no source tree.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR_NAME = ".perfbench_work"
# a worker that has not answered within this long counts as hung
CHILD_TIMEOUT_S = 170.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty list")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def source_root(root: Path) -> Path:
    """The checkout's src/ directory; raises when the package is absent."""
    src = root / "src"
    if not (src / "cone_spectra" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cone_spectra package under {src}")
    return src


def child_env(root: Path) -> dict:
    """Environment for every child: the checkout's src/ first on the path.

    BLAS thread counts and CONE_SPECTRA_THREADS are passed through as found.
    """
    env = dict(os.environ)
    src = str(source_root(root))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _dist_version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def src_line_count(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(root: Path) -> dict:
    """Informational record printed with every result; never gated."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _dist_version("numpy"),
        "scipy": _dist_version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cone_spectra_threads": os.environ.get("CONE_SPECTRA_THREADS"),
        "src_lines": src_line_count(root),
    }


def run_worker(root: Path, script: str, args: list[str]) -> dict:
    """Run a benchmark-owned Python script as a child; return its last JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / script), *args]
    proc = subprocess.run(
        cmd,
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{script} {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def cycles_fit(elapsed: float, cycle_s: float, budget: float) -> bool:
    """Start another whole cycle when doing so lands nearer the time budget."""
    return elapsed + cycle_s / 2.0 < budget
