#!/usr/bin/env python3
"""The benchmark's own smoke test: a tiny-scale, short run of every
workload, with tracing off and on.

From the root of a checkout:

  python3 perfbench/smoke.py

Each run must exit 0 and end with the result JSON, which must carry
exactly the keys correct/attempted/failed/metrics, be correct with no
failed request, and emit exactly BENCHMARK.json's end_to_end metrics
(trace 0) or per_layer metrics (trace 1), each finite and with its
declared unit. Every metric name must match [A-Za-z0-9_.-]+, and the run's
"# meta" line must show that the correctness gate compared all 40 pairs.
At these scales the gate's oracle is the reference interpreter
(xmark-small-cold) or a 4-thread, small-morsel Session, not the
recorded digests.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SCALE = "0.002"
SECONDS = "1"


def check(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = "%s --trace %d" % (workload, trace)
    lines = out.stdout.strip().splitlines()
    problems = []
    if out.returncode != 0:
        problems.append("exit code %d: %s" % (out.returncode, out.stderr[-2000:]))
    if not lines:
        return [where + ": no output"] + problems
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correct=%s failed=%s" % (result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted=%s" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric " + name)
        elif m.get("unit") != unit:
            problems.append("%s unit %r, declared %r" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s value %r" % (name, m.get("value")))
    for name in metrics:
        if name not in declared:
            problems.append("undeclared metric " + name)
        if not NAME.match(name):
            problems.append("bad metric name %r" % name)
    meta = [l for l in lines if l.startswith("# meta ")]
    if not meta or json.loads(meta[-1][len("# meta "):]).get("gate_pairs_checked") != 40:
        problems.append("correctness gate did not compare all 40 pairs")
    return [where + ": " + p for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            if not NAME.match(m["name"]):
                problems.append("BENCHMARK.json: bad name %r" % m["name"])
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        problems += check(w["name"], 0, end_to_end)
        problems += check(w["name"], 1, per_layer)
        print("%s: checked" % w["name"], file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
