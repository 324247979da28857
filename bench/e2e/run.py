#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e/e2e_bench.cpp).

One workload, one run (the form BENCHMARK.json's "command" takes):

    python3 bench/e2e/run.py --workload paper_suite --seed 0 --seconds 15 --trace 0

prints every metric by name with its unit, then one JSON line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(that run also writes a Chrome trace into the build directory).

Every workload, each in its own process:

    python3 bench/e2e/run.py [--runs N] [--out DIR] [--seconds S] [--trace 1]
    python3 bench/e2e/run.py --smoke     # all four in a few seconds
    python3 bench/e2e/run.py --check     # exit 1 if any correctness check fails

Two result sets written with --out, judged by BENCHMARK.json's bounds:

    python3 bench/e2e/run.py --compare A B

The benchmark is built from the repository's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["paper_suite", "dag_flood", "tenant_mix", "oversub"]
# Seed 0 is the paper's own configuration (block 256, exact middle scales).
DEFAULT_SEED = 0
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "e2e"


def build():
    """Configure once, then (re)build incrementally; returns the binary."""
    if not (ROOT / "src" / "sim" / "engine.hpp").is_file():
        sys.exit("run.py: the repository's src/ tree is missing; "
                 "the benchmark builds from it")
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return out / "e2e_bench"


def run_once(exe, workload, seed, seconds, trace, smoke=False, check=False):
    """One workload process; returns its result object."""
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={build_dir() / f'trace_{workload}_{seed}.json'}")
    if smoke:
        cmd.append("--smoke")
    if check:
        cmd.append("--check")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["trace"] = bool(trace)
    return result


def select(result, metric_specs):
    """The named metrics with BENCHMARK.json's units; every one must exist."""
    metrics = {}
    for m in metric_specs:
        if m["name"] not in result["metrics"]:
            sys.exit(f"run.py: {result['workload']} did not report {m['name']}")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    return metrics


def print_table(workload, metrics):
    print(f"--- {workload}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def load_set(directory):
    runs = []
    for p in sorted(Path(directory).glob("*.json")):
        with open(p) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"run.py: no results in {directory}")
    return runs


def compare(dir_a, dir_b):
    """Apply BENCHMARK.json's bounds to the medians of two result sets."""
    s = spec()
    a, b = load_set(dir_a), load_set(dir_b)
    worst = 0
    print(f"{'workload':12s} {'metric':22s} {'median A':>14s} {'median B':>14s}"
          f" {'worse':>8s} {'bound':>8s} {'iqr A':>7s} {'iqr B':>7s}")
    for w in WORKLOADS:
        ra = [r for r in a if r["workload"] == w and not r["trace"]]
        rb = [r for r in b if r["workload"] == w and not r["trace"]]
        if not ra or not rb:
            continue
        for m in s["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in ra]
            vb = [r["metrics"][m["name"]] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = worse > m["bound"]
            worst += bad
            print(f"{w:12s} {m['name']:22s} {ma:14.6g} {mb:14.6g} "
                  f"{worse:+8.2%} {m['bound']:8.2%} {spread(va):7.2%} "
                  f"{spread(vb):7.2%}{'  REGRESSION' if bad else ''}")
    print(f"{worst} metric(s) worse than their bound")
    return 1 if worst else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds seed..seed+runs-1")
    ap.add_argument("--out", help="write each run's result JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)

    s = spec()
    exe = build()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.05 if args.smoke else s["run_seconds"]
    first_seed = DEFAULT_SEED if args.seed is None else args.seed
    metric_specs = s["per_layer"] if args.trace else s["end_to_end"]

    if args.workload:
        result = run_once(exe, args.workload, first_seed, seconds, args.trace,
                          args.smoke, args.check)
        metrics = select(result, metric_specs)
        print_table(args.workload, metrics)
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": metrics}))
        return 0 if result["correct"] or not args.check else 1

    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for w in WORKLOADS:
        for i in range(args.runs):
            seed = first_seed + i
            result = run_once(exe, w, seed, seconds, args.trace, args.smoke,
                              args.check)
            failed += result["failed"]
            print_table(f"{w} seed={seed} correct={result['correct']}",
                        select(result, metric_specs))
            if out:
                tag = "trace" if args.trace else "run"
                with open(out / f"{w}_{tag}_{seed}.json", "w") as f:
                    json.dump(result, f)
    print(f"{failed} failed request(s) or check(s)")
    return 1 if failed and args.check else 0


if __name__ == "__main__":
    sys.exit(main())
