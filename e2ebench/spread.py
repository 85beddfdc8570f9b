#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over one or more sets of runs.

Usage (from the root of a checkout):

    python3 e2ebench/spread.py [--runs N] [--sets K] [--first-seed S] [workload ...]

Makes K sets (default 2) of N runs (default 10) per workload. Set k uses
seeds S + 100k, S + 100k + 1, ... The runs are interleaved: the i-th run of
every set of every workload comes before any (i+1)-th run, so slow drift of
the host lands on all sets alike.

For each set it prints, per end-to-end metric, the median and the spread:
the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. For each later
set it prints how much worse its median is than the first set's, as a share
of the first set's median. Each figure is printed next to the metric's bound
in BENCHMARK.json, and the last lines give the largest spread over bound and
the largest shift over bound, setup_s included.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: run not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # values[workload][set][metric] -> list of run values
    values = {w: [{} for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            for k in range(args.sets):
                seed = args.first_seed + 100 * k + i
                try:
                    got = run_once(spec, workload, seed)
                except (RuntimeError, subprocess.CalledProcessError) as e:
                    print(e, file=sys.stderr)
                    return 1
                for name, v in got.items():
                    values[workload][k].setdefault(name, []).append(v)
                print(f"run {i} set {k} {workload} seed {seed}: " +
                      " ".join(f"{n}={v:.6g}" for n, v in got.items()),
                      file=sys.stderr, flush=True)

    worst_spread = worst_shift = 0.0
    for workload in args.workloads:
        print(f"{workload} ({args.runs} runs per set)")
        for name, m in metrics.items():
            line = f"  {name:<16}"
            first_median = None
            for k in range(args.sets):
                vals = values[workload][k][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                worst_spread = max(worst_spread, spread / m["bound"])
                line += f" | set {k}: median {med:<12.6g} spread {spread:7.2%}"
                if first_median is None:
                    first_median = med
                    continue
                change = (med - first_median) / first_median
                worse = change if m["better"] == "lower" else -change
                worst_shift = max(worst_shift, worse / m["bound"])
                line += f" worse by {worse:7.2%}"
            print(line + f" | bound {m['bound']:.0%}")
    print(f"largest spread / bound: {worst_spread:.2f}")
    if args.sets > 1:
        print(f"largest shift / bound: {worst_shift:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
