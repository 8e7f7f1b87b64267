#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]

Run from the repository root. For each workload in BENCHMARK.json it makes
`--sets` sets of `--runs` untraced runs, each run with its own seed (set k
uses seeds k*1000+1 ... k*1000+runs), through the command in
BENCHMARK.json. For every end-to-end metric it prints, per set, the median
and the spread (interquartile range over median, quartiles as
statistics.quantiles(n=4) gives them), and the drift of each later set's
median against the first (signed, positive = worse), all against the
metric's bound. A spread above a third of the bound is flagged "wide"; a
spread or an absolute drift above the bound is flagged "FAIL". Every
metric, setup_s included, is held to both rules. Exits 1 if any run fails
or any FAIL flag is raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed: "
                           f"{lines[-3:] if lines else 'no output'}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = k * 1000 + i + 1
                runs.append(run_once(spec, workload, seed))
                print(f"  {workload} set {k} seed {seed} done", flush=True)
            sets.append(runs)
        print(f"\n== {workload}: {args.sets} set(s) x {args.runs} run(s)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(r[name] for r in s) for s in sets]
            spreads = [spread([r[name] for r in s]) for s in sets]
            sign = 1 if metric["better"] == "lower" else -1
            drifts = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
            flags = []
            if max(spreads) > bound:
                flags.append("FAIL spread")
            elif max(spreads) > bound / 3:
                flags.append("wide")
            if drifts and max(abs(d) for d in drifts) > bound:
                flags.append("FAIL drift")
            ok = ok and not any(f.startswith("FAIL") for f in flags)
            print(f"  {name:20s} bound {bound:5.3f}  medians "
                  + " ".join(f"{m:12.6g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:6.3f}" for s in spreads)
                  + "  drift " + " ".join(f"{d:+6.3f}" for d in drifts)
                  + ("  " + ", ".join(flags) if flags else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
