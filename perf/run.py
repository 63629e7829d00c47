"""The repo's benchmark: end-to-end and per-layer wall clock of ``ServingEngine``.

One run (the form the driver uses; the last stdout line is the result)::

    python3 perf/run.py --workload live_single --seed 0 --seconds 15 --trace 0

A full set — every workload, untraced then traced, each in a fresh
subprocess — printed as ``workload metric value unit`` lines plus one JSON
document::

    python3 perf/run.py [--seed 0] [--smoke] [--out perf/out]
    python3 perf/run.py --repeat 2     # same seed twice: between-set difference vs. bound
    python3 perf/run.py --spread 10    # ten seeds, untraced: quartile spread vs. a third of the bound

See ``perf/README.md`` for the metrics, the workloads and the noise model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parent
SMOKE_SCALE = 1 / 50


def _load_benchmark() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run_one(args) -> int:
    """Driver contract: one workload, one result object on the last line."""
    # BLAS worker threads spin on a 2-core VM and burn the core the
    # interpreter needs; pin them before NumPy is imported.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    if not (REPO / "src" / "repro").is_dir():
        print(f"perf/run.py: the program under test is missing: {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(PERF_DIR)]
    import perf_harness

    result = perf_harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=SMOKE_SCALE if args.smoke else 1.0,
        min_reps=2 if args.smoke else 3,
        out_dir=Path(args.out),
    )
    details = result.pop("details")
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def _run_set(args, seed: int, benchmark: dict, traces: tuple[int, ...] = (0, 1)) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    results: dict[str, dict] = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        metrics: dict[str, dict] = {}
        for trace in traces:
            command = [
                sys.executable, str(PERF_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                raise RuntimeError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics.update(result["metrics"])
            results.setdefault(workload, {"correct": True, "attempted": 0, "failed": 0})
            results[workload]["correct"] &= result["correct"]
            results[workload]["attempted"] += result["attempted"]
            results[workload]["failed"] += result["failed"]
        results[workload]["failed_share"] = results[workload]["failed"] / results[workload]["attempted"]
        results[workload]["metrics"] = metrics
        for name, entry in metrics.items():
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        print(f"{workload} failed_share {results[workload]['failed_share']:.6g} share", flush=True)
    return results


def _compare(sets: list[dict], benchmark: dict, *, spread: bool) -> tuple[list[dict], bool]:
    """Per workload and end-to-end metric, how far the sets disagree.

    ``spread``: quartile distance over the median (the driver's acceptance
    statistic), held against a third of the bound.  Otherwise the largest
    between-set difference over the median, held against the bound.
    """
    rows, ok = [], True
    for workload in sets[0]:
        for spec in benchmark["end_to_end"]:
            values = [s[workload]["metrics"][spec["name"]]["value"] for s in sets]
            middle = statistics.median(values)
            if spread:
                quartiles = statistics.quantiles(values, n=4)
                distance, limit = (quartiles[2] - quartiles[0]) / middle, spec["bound"] / 3
            else:
                distance, limit = (max(values) - min(values)) / middle, spec["bound"]
            within = distance <= limit or (spread and spec["name"] == "setup_s")
            ok &= within
            rows.append(
                {"workload": workload, "metric": spec["name"], "median": middle,
                 "difference": distance, "limit": limit, "within": within, "values": values}
            )
            print(f"{workload} {spec['name']} difference {distance:.4f} limit {limit:.4f} {'ok' if within else 'EXCEEDED'}")
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measurement budget per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="1/50 scale, 2 reps: exercises every path in seconds")
    parser.add_argument("--repeat", type=int, default=1, help="full sets on the same seed, compared against the bounds")
    parser.add_argument("--spread", type=int, default=0, help="full sets on this many seeds, quartile spread vs bound/3")
    parser.add_argument("--out", default=str(PERF_DIR / "out"), help="directory for span files and set documents")
    args = parser.parse_args(argv)

    benchmark = _load_benchmark()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(benchmark["run_seconds"])
    if args.workload:
        return _run_one(args)

    seeds = [args.seed + i for i in range(args.spread)] if args.spread else [args.seed] * args.repeat
    # The spread statistic is defined on the end-to-end metrics only.
    traces = (0,) if args.spread else (0, 1)
    sets = [_run_set(args, seed, benchmark, traces) for seed in seeds]
    sys.path[:0] = [str(REPO / "src"), str(PERF_DIR)]
    from perf_harness import CALIBRATION_REF_S

    document = {
        "benchmark": "perf/run.py",
        "seeds": seeds,
        "smoke": args.smoke,
        "run_seconds": args.seconds,
        "calibration_ref_s": CALIBRATION_REF_S,
        "environment": _environment(),
        "sets": sets,
    }
    ok = all(entry["correct"] for s in sets for entry in s.values())
    if len(sets) > 1:
        document["comparison"], within = _compare(sets, benchmark, spread=bool(args.spread))
        ok &= within
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "spread" if args.spread else "repeatability" if args.repeat > 1 else "set"
    with open(out / f"{name}.json", "w") as handle:
        json.dump(document, handle, indent=1)
    print(json.dumps(document))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
