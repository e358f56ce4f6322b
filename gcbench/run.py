#!/usr/bin/env python3
"""Build and run the gcassert repository benchmark.

    python3 gcbench/run.py --workload serve|saturate|audit --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
gcbench (the runtime library from src/ plus the benchmark program)
into .bench_build/gcbench; later runs only rebuild what changed.
Build output goes to stderr. The program's standard output is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, which is checked here
before the run counts as a success. GCASSERT_* variables are removed
from the environment so that every run measures the runtime's default
configuration.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "gcbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "gcbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("gcbench: build step failed: " + " ".join(step))


def check_result(line):
    """Return the parsed result line, or exit if it is malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        sys.exit("gcbench: last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("gcbench: result keys are wrong")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit("gcbench: nothing was attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            sys.exit("gcbench: metric %s is malformed" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "saturate", "audit"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        sys.exit("gcbench: --seed must be >= 0 and --seconds in [1, 600]")

    build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GCASSERT_")}
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", OUT_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("gcbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("gcbench: program exited with %d" % done.returncode)
    check_result(lines[-1])
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
