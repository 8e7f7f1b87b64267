#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench, then runs one workload and
relays its report: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error. Exits non-zero, without a result line, when the sources
are missing or the build fails, and with a result that reads
"correct": false when any correctness or coverage check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("swf-stream", "braun-batch", "churn-qos")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures once, then builds incrementally; output to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    done = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", WORK],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: {args.workload} printed no result "
                 f"(exit {done.returncode})")
    # A failed check prints its result with "correct": false and still
    # exits non-zero.
    sys.stdout.write(done.stdout)
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
