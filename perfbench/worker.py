"""In-process worker for the sweeps, and the set-up step of cli-readme.

Started by run.py as a fresh interpreter with the checkout's src/ on the
path, so set-up pays the real package import.  Prints one JSON line.

    python3 perfbench/worker.py --workload exact-sweep --mode run \
        --seed 1 --seconds 30 --trace 0 --work-dir .perfbench_work/x
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from common import cycles_fit, median

README_OFF = ("link.off", 3)  # the README's `--off link.off`: icosphere level 3
WARMUP_SEED_SALT = 0x5EED
TRACE_CYCLES = {"exact-sweep": 2, "numeric-sweep": 1}


def _ops(workload: str, work_dir: Path):
    """(ops object, workload module, warm-up ops) for a sweep."""
    if workload == "exact-sweep":
        import exact_sweep as module

        ops = module.ExactOps()
        warm = [module.make_cone(random.Random(WARMUP_SEED_SALT), "hl", 12)]
    else:
        import numeric_sweep as module

        ops = module.NumericOps(work_dir)
        warm = module.warmup_ops(random.Random(WARMUP_SEED_SALT))
    return ops, module, warm


def _check_source(root: Path) -> None:
    import cone_spectra

    if not Path(cone_spectra.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"cone_spectra imported from {cone_spectra.__file__}, not {root}/src")


def _attempt(ops, op) -> tuple[float, list[str]]:
    """Run one op (timed) and check it (untimed); returns (seconds, failures)."""
    start = time.perf_counter()
    try:
        out = ops.run(op)
    except Exception as exc:  # any library error is a failed op, not a crash
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, ops.check(op, out)


def setup(workload: str, work_dir: Path) -> tuple:
    start = time.perf_counter()
    if workload == "cli-readme":
        from cone_spectra import mesh

        name, level = README_OFF
        mesh.save_off(mesh.icosphere(level), work_dir / name)
        return time.perf_counter() - start, None, None
    ops, module, warm = _ops(workload, work_dir)
    for op in warm:
        _elapsed, bad = _attempt(ops, op)
        if bad:
            raise RuntimeError(f"warm-up op failed: {bad}")
    return time.perf_counter() - start, ops, module


def run_untraced(workload: str, work_dir: Path, seed: int, seconds: float) -> dict:
    setup_s, ops, module = setup(workload, work_dir)
    rng = random.Random(seed)
    families: dict[str, list[float]] = {}
    by_class: dict[str, list[float]] = {}
    latencies: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    cycle_s = 0.0
    while attempted == 0 or cycles_fit(time.perf_counter() - start, cycle_s, seconds):
        cycle_start = time.perf_counter()
        for op in module.cycle(rng):
            elapsed, bad = _attempt(ops, op)
            attempted += 1
            if bad:
                failures.append(f"{op['kind']}: {bad[0]}")
                continue
            latencies.append(elapsed * 1000.0)
            families.setdefault(op["family"], []).append(elapsed * 1000.0)
            by_class.setdefault(module.op_class(op), []).append(elapsed * 1000.0)
        cycle_s = time.perf_counter() - cycle_start
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "setup_s": setup_s,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": latencies,
        "families": families,
        "by_class": by_class,
    }


def run_traced(workload: str, work_dir: Path, seed: int, seconds: float) -> dict:
    """Alternate traced and plain passes over a fixed, seeded list of ops."""
    from tracer import Tracer, timed_import

    imported = timed_import()
    _setup_s, ops, module = setup(workload, work_dir)
    rng = random.Random(seed)
    pass_ops = [op for _ in range(TRACE_CYCLES[workload]) for op in module.cycle(rng)]
    tracer = Tracer()
    passes, overheads, failures = [], [], []
    mesh_matches = []
    attempted = 0
    start = time.perf_counter()
    pair_s = 0.0
    while not passes or cycles_fit(time.perf_counter() - start, pair_s, seconds):
        pair_start = time.perf_counter()
        walls = []
        for traced in (True, False):
            if traced:
                tracer.reset()
                tracer.install()
            wall = 0.0
            try:
                for op in pass_ops:
                    start_op = time.perf_counter()
                    try:
                        out = ops.run(op)
                    except Exception as exc:  # counted as a failed op
                        out, bad = None, [f"{type(exc).__name__}: {exc}"]
                    wall += time.perf_counter() - start_op
                    attempted += 1
                    if out is not None:
                        bad = ops.check(op, out)
                        if traced and not passes and op["family"] == "mesh":
                            mesh_matches.append(ops.multiplicity_matches(op, out))
                    if bad:
                        failures.append(f"{op['kind']}: {bad[0]}")
            finally:
                if traced:
                    tracer.uninstall()
            walls.append(wall)
            if traced:
                passes.append(tracer.summary())
        overheads.append((walls[0] - walls[1]) * 1000.0 / len(pass_ops))
        pair_s = time.perf_counter() - pair_start
    for summary in passes:
        summary.update(imported)
        summary["cli.output_bytes"] = 0
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "overhead_ms": median(overheads),
        "mesh_counts": [list(m) for m in mesh_matches],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if args.mode == "setup":
            result = {"setup_s": setup(args.workload, args.work_dir)[0]}
        elif args.trace:
            result = run_traced(args.workload, args.work_dir, args.seed, args.seconds)
        else:
            result = run_untraced(args.workload, args.work_dir, args.seed, args.seconds)
        _check_source(root)  # after set-up, whose time includes the first import
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
