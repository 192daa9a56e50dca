#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds
judge it.

From the root of a checkout:

  python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs perfbench/run.py --runs times per workload, each with another seed,
for BENCHMARK.json's run_seconds, with tracing off. For every end-to-end
metric it prints the median of the runs and the distance between their
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. "ok" means the spread is below a
third of the bound; setup_s is exempt from the spread rule. Exits 1 when a
run fails or a spread is not ok.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect or failed run" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        print("\n%s (%d runs)" % (workload, args.runs))
        print("%-20s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            exempt = metric["name"] == "setup_s"
            good = exempt or spread < metric["bound"] / 3
            ok = ok and good
            print("%-20s %14.6g %10.4f %8.3f %-6s %s" % (
                metric["name"], median, spread, metric["bound"],
                "exempt" if exempt else ("ok" if good else "WIDE"),
                " ".join("%.4g" % v for v in values)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
