#!/usr/bin/env python3
"""Builds `dht` and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload hot-twoway --seed 1 --seconds 20 --trace 0

Run from the repository root.  Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`), scratch inputs to `.bench_work`.  The last line
of standard output is the JSON result; the exit code is non-zero when the
build fails, a run fails, or any answer is wrong.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("Cargo.toml", ["-p", "dht-cli"]), ("perfbench/Cargo.toml", [])):
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", os.path.join(ROOT, manifest)] + extra
        # Cargo's own output goes to stderr, keeping stdout for the result.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot-twoway", "cold-mixed", "routed-twoway"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(target, "release", "dht-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dht", os.path.join(target, "release", "dht"), "--work-dir", work]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
