"""One fresh interpreter of the benchmark: set up, then measure one workload.

Usage: python bench/child.py <workload> <seed> <seconds> <mode>

Every mode imports the library, builds the workload, runs one untimed
warm-up op and prints ``ready``: the set-up a CLI call pays. Mode
``setup`` stops there. Mode ``run`` then runs whole timed passes until
``seconds`` of pass time have gone by, checking each pass's outputs
between passes; ``run+sweep`` also runs the workload's full-interval
sweep afterwards. Mode ``trace`` runs pass 0 once with every layer
traced. Except in ``setup`` mode the last stdout line is one JSON object.
"""

import json
import os
import random
import resource
import statistics
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import shenell  # noqa: E402

if not os.path.abspath(shenell.__file__).startswith(SRC + os.sep):
    sys.exit(f"shenell imported from {shenell.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: latencies kept for the percentiles; past this a uniform reservoir
#: keeps memory flat however many ops a run completes
LATENCY_SAMPLES = 50_000
MAX_REASONS = 10


class Tally:
    """Failed ops and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised_untyped = 0
        self.reasons = []

    def add(self, label, error=None, reason=None):
        self.attempted += 1
        if error is not None:
            if not isinstance(error, shenell.ShenError):
                self.raised_untyped += 1
            reason = f"{type(error).__name__}: {error}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{label}: {reason}"[:300])

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "raised_untyped": self.raised_untyped, "reasons": self.reasons}


def run_pass(ops, on_op=None):
    """Run the ops in order; return (outputs, errors, latencies, wall seconds)."""
    clock = time.perf_counter
    outputs = [None] * len(ops)
    errors = {}
    latencies = array("d")
    begin = clock()
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index)
        start = clock()
        try:
            outputs[index] = op.call()
        except Exception as exc:  # every failure is counted, none may stop the run
            errors[index] = exc
        latencies.append(clock() - start)
    return outputs, errors, latencies, clock() - begin


def digest(workload, ops, outputs, errors, tally):
    """Check each op's output (outside the timed region) and count failures."""
    for index, op in enumerate(ops):
        if index in errors:
            tally.add(op.label, error=errors[index])
            continue
        tally.add(op.label, reason=workload.check(op.label, outputs[index]))


def timed_run(workload, seconds, seed):
    tally = Tally()
    reservoir = array("d")
    pick = random.Random(seed)
    seen = 0
    wall = 0.0
    passes = 0
    records = []
    while True:
        ops = workload.pass_ops(passes)
        outputs, errors, latencies, pass_wall = run_pass(ops)
        if passes == 0:
            first_wall = pass_wall
        wall += pass_wall
        for value in latencies:
            seen += 1
            if len(reservoir) < LATENCY_SAMPLES:
                reservoir.append(value)
            else:
                slot = pick.randrange(seen)
                if slot < LATENCY_SAMPLES:
                    reservoir[slot] = value
        digest(workload, ops, outputs, errors, tally)
        if passes == 0:
            records = [r for op, out in zip(ops, outputs)
                       if out is not None and (r := workload.record(op.label, out)) is not None]
        passes += 1
        if wall >= seconds:
            break
    lat_ms = sorted(v * 1e3 for v in reservoir)
    return {
        "tally": tally.as_dict(),
        "ok": tally.attempted - tally.failed,
        "wall_s": wall,
        "first_pass_wall_s": first_wall,
        "passes": passes,
        "ops_per_pass": len(ops),
        "latency_samples": len(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }


def sweep(workload):
    ops = workload.sweep_ops()
    tally = Tally()
    if ops:
        outputs, errors, _, _ = run_pass(ops)
        digest(workload, ops, outputs, errors, tally)
    return tally.as_dict()


def traced_pass(workload, seed):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    ops = workload.pass_ops(0)

    def on_op(index):
        tracer.op = index

    outputs, errors, _, wall = run_pass(ops, on_op)
    tally = Tally()
    digest(workload, ops, outputs, errors, tally)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl"))
    return {
        "tally": tally.as_dict(),
        "ops": len(ops),
        "wall_s": wall,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "errors": dict(tracer.errors),
        "error_types": [[key, kind, n] for (key, kind), n in tracer.error_types.items()],
        "edges": [[parent, key, n] for (parent, key), n in tracer.edges.items()],
        "nested": [[outer, inner, n] for (outer, inner), n in tracer.nested.items()],
    }


def main(argv):
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    workload = workloads.WORKLOADS[name](seed)
    workload.warmup()
    print("ready", flush=True)
    if mode == "setup":
        return
    if mode == "trace":
        result = traced_pass(workload, seed)
    else:
        result = timed_run(workload, seconds, seed)
        if mode == "run+sweep":
            result["sweep"] = sweep(workload)
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv)
