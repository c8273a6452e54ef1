"""Measure every workload on several seeds and print a baseline file.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 1-10 --seconds 20 > bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed) with tracing off, and once
per workload with tracing on for the first seed. Prints, per workload, each
end-to-end metric's values, median and quartiles (``statistics.quantiles``
with n=4) with the spread (q3 - q1) / median, the traced per-layer metrics
and the sweep, and the layer -> end-to-end map. Stops if a run is not
correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: layer -> (end-to-end metrics it should move, workloads it is mostly on,
#: workloads it is ~zero on); the prediction a change to the layer is held to
LAYER_MAP = {
    "hypergeometric": (["realaxis op_p90_ms", "certify op_p90_ms"], ["realaxis"], ["grid"]),
    "quadrature": (["realaxis ops_per_s", "pole-sweep ops_per_s"],
                   ["realaxis", "pole-sweep"], ["grid"]),
    "phase": (["realaxis ops_per_s", "realaxis op_p50_ms", "certify op_p90_ms"],
              ["realaxis"], ["grid", "pole-sweep"]),
    "weierstrass (wp)": (["grid ops_per_s", "certify op_p50_ms"], ["grid"], ["realaxis"]),
    "weierstrass (lattice)": (["pole-sweep ops_per_s", "setup_s"], ["pole-sweep"], ["grid"]),
    "field": (["grid ops_per_s", "certify op_p50_ms"], ["grid"], ["realaxis"]),
    "poles": (["pole-sweep ops_per_s"], ["pole-sweep"], ["grid"]),
    "verify": (["certify (all metrics)"], ["certify"], ["grid", "realaxis", "pole-sweep"]),
    "cli": (["grid ops_per_s"], ["grid"], ["realaxis"]),
}


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-3])["details"]
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} is not correct: "
                 f"{details['failure_reasons']}")
    return result, details, provenance


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {},
           "layer_map": {layer: {"should_move": move, "mostly_on": on, "near_zero_on": off}
                         for layer, (move, on, off) in LAYER_MAP.items()}}
    for workload in spec["workloads"]:
        name = workload["name"]
        values = {}
        for seed in args.seeds:
            result, details, provenance = run(name, seed, args.seconds, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()),
                file=sys.stderr, flush=True)
        traced, traced_details, _ = run(name, args.seeds[0], args.seconds, 1)
        out["workloads"][name] = {
            "why": workload["why"],
            "end_to_end": {metric: summary(v) for metric, v in values.items()},
            "per_layer": {metric: entry["value"]
                          for metric, entry in traced["metrics"].items()},
            "sweep": traced_details["sweep"],
        }
    provenance.pop("seed")
    out["provenance"] = provenance | {"numpy": details["numpy"]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
