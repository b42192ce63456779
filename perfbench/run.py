"""cone-spectra benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 35 --trace 0

Workloads: cli-readme, exact-sweep, numeric-sweep (see perfbench/README.md).
With --trace 0 the last line holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The line before it is informational: the
environment, per-family latencies and sample counts, and any failures.
The parent never imports cone_spectra; every measurement happens in a fresh
child interpreter with the checkout's src/ on its path.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from common import (
    WORK_DIR_NAME,
    environment,
    median,
    metric,
    percentile,
    run_worker,
    source_root,
)

WORKLOADS = ("cli-readme", "exact-sweep", "numeric-sweep")
SETUPS = 5  # set-up repeats per run; setup_s is their median

PER_LAYER = (
    ("import.ms", "ms"),
    ("import.modules", "count"),
    ("import.scipy_loaded", "ratio"),
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("spectra.calls", "count"),
    ("spectra.self_ms", "ms"),
    ("spectra.lattice_points", "count"),
    ("indicial.calls", "count"),
    ("indicial.self_ms", "ms"),
    ("indicial.roots", "count"),
    ("stability.calls", "count"),
    ("stability.self_ms", "ms"),
    ("fredholm.calls", "count"),
    ("fredholm.self_ms", "ms"),
    ("presets.calls", "count"),
    ("presets.self_ms", "ms"),
    ("geometry.calls", "count"),
    ("geometry.self_ms", "ms"),
    ("geometry.samples", "count"),
    ("geometry.newton_solves", "count"),
    ("quadrature.integrals", "count"),
    ("quadrature.points", "count"),
    ("quadrature.self_ms", "ms"),
    ("g2.calls", "count"),
    ("g2.self_ms", "ms"),
    ("mesh.vertices", "count"),
    ("mesh.load_ms", "ms"),
    ("mesh.assembly_ms", "ms"),
    ("mesh.eigensolve_ms", "ms"),
    ("mesh.dense_bytes", "bytes"),
    ("mesh.mult_match_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
)

def _worker_args(workload: str, mode: str, work_dir: Path, seed: int, seconds: float, trace: int):
    return [
        "--workload", workload, "--mode", mode, "--work-dir", str(work_dir),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]


def run_sweep(root: Path, work_dir: Path, args) -> dict:
    if args.trace:
        return run_worker(
            root, "worker.py", _worker_args(args.workload, "run", work_dir, args.seed, args.seconds, 1)
        )
    setup_args = _worker_args(args.workload, "setup", work_dir, args.seed, args.seconds, 0)
    setups = [run_worker(root, "worker.py", setup_args)["setup_s"] for _ in range(SETUPS - 1)]
    raw = run_worker(
        root, "worker.py", _worker_args(args.workload, "run", work_dir, args.seed, args.seconds, 0)
    )
    raw["setup_times"] = setups + [raw.pop("setup_s")]
    return raw


def run_cli(root: Path, work_dir: Path, args) -> dict:
    import cli_readme

    if args.trace:
        return cli_readme.run_traced(root, work_dir, args.seed, args.seconds)
    return cli_readme.run_untraced(root, work_dir, args.seed, args.seconds, SETUPS)


def _median_throughput(by_class: dict) -> float:
    """Ops per second with every op taking its class's median latency.

    Each class (a README command, a cone class, an op kind and mesh size)
    keeps its share of the run; medians keep the host's slow spells, which
    last seconds on a shared machine, from moving the figure.
    """
    ops = sum(len(v) for v in by_class.values())
    busy_ms = sum(len(v) * median(v) for v in by_class.values())
    return ops * 1000.0 / busy_ms if busy_ms else 0.0


def end_to_end(raw: dict) -> tuple[dict, dict]:
    lat = raw["latencies"] or [0.0]
    metrics = {
        "setup_s": metric(median(raw["setup_times"]), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "ops_per_s": metric(_median_throughput(raw["by_class"]), "1/s"),
        "p50_ms": metric(percentile(lat, 50.0), "ms"),
        "p90_ms": metric(percentile(lat, 90.0), "ms"),
    }
    info = {"samples": len(raw["latencies"]), "setup_times_s": raw["setup_times"],
            "measured_s": raw["measured_s"],
            "attempted_per_s": raw["attempted"] / raw["measured_s"]}
    for family, values in raw["families"].items():
        info[f"{family}_p50_ms"] = percentile(values, 50.0)
        info[f"{family}_p90_ms"] = percentile(values, 90.0)
        info[f"{family}_samples"] = len(values)
    return metrics, info


def per_layer(raw: dict) -> tuple[dict, dict]:
    passes = raw["passes"]
    first = passes[0]
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ms":
            values[name] = raw["overhead_ms"]
        elif name == "mesh.mult_match_ratio":
            counts = raw.get("mesh_counts", [])
            total = sum(t for _m, t in counts)
            values[name] = sum(m for m, _t in counts) / total if total else 0.0
        elif unit == "ms":
            values[name] = median([p[name] for p in passes])
        else:
            values[name] = first[name]
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    return metrics, {"traced_passes": len(passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        source_root(root)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of a cone-spectra checkout", file=sys.stderr)
        return 2
    work_root = root / WORK_DIR_NAME
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    start = time.perf_counter()
    try:
        runner = run_cli if args.workload == "cli-readme" else run_sweep
        raw = runner(root, work_dir, args)
    except Exception as exc:  # a crashed or hung child: no result line
        print(f"perfbench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics, info = per_layer(raw) if args.trace else end_to_end(raw)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        wall_s=time.perf_counter() - start,
        failures=raw["failures"][:20],
        environment=environment(root),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
