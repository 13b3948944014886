#!/usr/bin/env python3
"""Runs each workload N times with different seeds and summarises the spread.

    python3 perfbench/repeat.py --runs 10 [--seconds 20] [--workload cold-mixed ...]
                                [--trace 0|1] [--first-seed 1] [--save set1.json]
    python3 perfbench/repeat.py --compare set1.json set2.json

For every metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), min and max, and the spread: the
distance between the quartiles as a share of the median.  With
BENCHMARK.json bounds, a spread is flagged when it is not below a third of
its bound.  `--compare` checks that the second set's medians are not worse
than the first's by more than each metric's bound.  Run from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong answers:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, min(values), max(values), spread


def report(results, bounds):
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8}")
        for name in runs[0]:
            median, q1, q3, low, high, spread = summarise([r[name] for r in runs])
            flag = ""
            if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
                flag = f"  <- not below a third of the bound {bounds[name]}"
            print(f"  {name:<28} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {low:>12.4f} {high:>12.4f} {spread:>8.3f}{flag}")


def compare(first, second, metrics):
    ok = True
    for workload in first:
        for m in metrics:
            name = m["name"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {workload:<14} {name:<20} {a:>12.4f} {b:>12.4f} worse by {worse:+.3f} (bound {m['bound']}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    bench = spec()
    metrics = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(sets[0], sets[1], metrics) else 1)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            values, wall = run_once(workload, args.first_seed + i, seconds, args.trace)
            print(f"{workload} seed {args.first_seed + i}: {wall:.1f} s wall", file=sys.stderr)
            runs.append(values)
        results[workload] = runs
    report(results, bounds if args.trace == 0 else {})
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
