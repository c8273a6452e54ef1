"""Smoke test of the benchmark itself: every workload at its smallest size.

Usage (from the repository root): python3 bench/smoke.py

Runs each workload for one pass with tracing off and on, and checks that
the last stdout line is the result object, that the run is correct, and
that every metric BENCHMARK.json names is emitted as a number with the
declared unit. Stops with a FAIL line on the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: {result}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}")
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    expect(not mismatch, f"{label}: metrics missing or undeclared: {sorted(mismatch)}")
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        value = emitted["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {metric['name']} = {value!r}")
        expect(emitted["unit"] == metric["unit"],
               f"{label}: {metric['name']} in {emitted['unit']!r}, declared {metric['unit']!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            check(run(workload, trace), declared, label)
            print(f"ok {label}: {len(declared)} metrics", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
