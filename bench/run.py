"""Benchmark of shenell: seeded workloads, end-to-end metrics, per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each measurement runs in its own fresh interpreter (``bench/child.py``),
one process at a time, with numpy/BLAS pinned to one thread. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-layer metrics of one traced pass, the full-interval sweep and the
tracing overhead. Every metric is printed by name with its unit, then
provenance, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("certify", "grid", "realaxis", "pole-sweep")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: fresh interpreters whose set-up time is measured, half before and half
#: after the measured run; the median is reported
SETUP_SAMPLES = 8
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def per_layer_units():
    units = {}
    for key in tracer.FUNCTIONS:
        units.update({f"{key}.calls": "count", f"{key}.self_s": "s",
                      f"{key}.errors": "count"})
    for suite in tracer.SUITES:
        units[f"{tracer.SUITE_KEY}.{suite}.self_s"] = "s"
    units.update({
        "phase.phi_of_u.integrate_per_call": "ratio",
        "phase.phase_speed.per_integrate": "ratio",
        "weierstrass.wp_with_prime.per_op": "ratio",
        "field.d_complex.pole_frac": "ratio",
        "trace.ops": "count",
        "trace.overhead_frac": "ratio",
        "fail_frac": "ratio",
        "sweep.attempted": "count",
        "sweep.failed": "count",
        "sweep.raised_untyped": "count",
    })
    return units


PER_LAYER = per_layer_units()


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)      # the child puts the checkout's src/ first itself
    env.update({name: "1" for name in THREAD_PINS})
    return env


def run_child(workload, seed, seconds, mode, deadline):
    """Start one child; return (seconds until it was ready, its JSON or None)."""
    command = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
               repr(float(seconds)), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child ({mode}) timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready != "ready\n":
        raise BenchError(f"{workload} child ({mode}) failed with exit code {proc.returncode}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def _ratio(part, base):
    return part / base if base else 0.0


def layer_metrics(main, traced):
    calls, self_s, errors = traced["calls"], traced["self_s"], traced["errors"]
    edges = {(parent, key): n for parent, key, n in traced["edges"]}
    nested = {(outer, inner): n for outer, inner, n in traced["nested"]}
    error_types = {(key, kind): n for key, kind, n in traced["error_types"]}
    values = {}
    for key in tracer.FUNCTIONS:
        values[f"{key}.calls"] = calls.get(key, 0)
        values[f"{key}.self_s"] = self_s.get(key, 0.0)
        values[f"{key}.errors"] = errors.get(key, 0)
    for suite in tracer.SUITES:
        name = f"{tracer.SUITE_KEY}.{suite}"
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    sweep = main["sweep"]
    tally = traced["tally"]
    values.update({
        "phase.phi_of_u.integrate_per_call": _ratio(
            nested.get(("phase.phi_of_u", "quadrature.integrate"), 0),
            calls.get("phase.phi_of_u", 0)),
        "phase.phase_speed.per_integrate": _ratio(
            edges.get(("quadrature.integrate", "phase.phase_speed"), 0),
            edges.get(("phase.u_of_phi", "quadrature.integrate"), 0)),
        "weierstrass.wp_with_prime.per_op": _ratio(
            calls.get("weierstrass.wp_with_prime", 0), traced["ops"]),
        "field.d_complex.pole_frac": _ratio(
            error_types.get(("field.d_complex", "PoleError"), 0),
            calls.get("field.d_complex", 0)),
        "trace.ops": traced["ops"],
        # the same pass, pass 0, traced and untraced
        "trace.overhead_frac": 1.0 - main["first_pass_wall_s"] / traced["wall_s"],
        "fail_frac": _ratio(tally["failed"] + sweep["failed"],
                            tally["attempted"] + sweep["attempted"]),
        "sweep.attempted": sweep["attempted"],
        "sweep.failed": sweep["failed"],
        "sweep.raised_untyped": sweep["raised_untyped"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def setup_samples(count):
        return [run_child(workload, seed, seconds, "setup", deadline)[0] for _ in range(count)]

    # the first child may compile the library's bytecode, so its set-up
    # time is not among the samples
    setup_samples(1)
    setups = [] if trace else setup_samples(SETUP_SAMPLES // 2)
    _, main = run_child(workload, seed, seconds, "run+sweep" if trace else "run", deadline)
    attempted = main["tally"]["attempted"]
    failed = main["tally"]["failed"]
    reasons = list(main["tally"]["reasons"])
    if trace:
        _, traced = run_child(workload, seed, seconds, "trace", deadline)
        attempted += traced["tally"]["attempted"]
        failed += traced["tally"]["failed"]
        reasons += traced["tally"]["reasons"]
        metrics = layer_metrics(main, traced)
    else:
        setups += setup_samples(SETUP_SAMPLES - len(setups))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main["ok"] / main["wall_s"],
            "op_p50_ms": main["op_p50_ms"],
            "op_p90_ms": main["op_p90_ms"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    check = oracles.CHECKS.get(workload)
    rejected = check(main["records"], seed) if check else []
    failed += len(rejected)
    reasons += rejected
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": main["passes"], "ops_per_pass": main["ops_per_pass"],
        "latency_samples": main["latency_samples"], "oracle_rejected": len(rejected),
        "setup_samples_s": setups, "sweep": main.get("sweep"),
        "failure_reasons": reasons[:10],
        "numpy": main["numpy"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def provenance():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "machine": platform.machine()}


def print_table(result, details):
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"details": details}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that run_child kills its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "shenell", "__init__.py")):
        print(f"error: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(result, details)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance() | {"seed": args.seed}}))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
