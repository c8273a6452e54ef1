"""Run the benchmark on a parent commit and a change in alternating pairs; write the summary.

    python3 tools/bench_pairs.py PARENT_REF N --seed S --out BENCH_n.json
                                 [--claim WORKLOAD:METRIC]

Each run is ``bench/run.py --workload all --seed <seed> --seconds <run_seconds>``
(the command and run length of ``BENCHMARK.json``) in a fresh ``git archive``
export of its commit, one run at a time. Pair i uses seed S + i; the parent
runs first in pairs 0, 2, 4, ... and the change first in the others. The
change is ``HEAD``, so commit what is to be measured first. Exports go to
the system's temporary directory (``TMPDIR``) and are removed after each run.

The output file is rewritten after every pair. Per workload and end-to-end
metric it holds each side's median, quartiles (inclusive method) and
interquartile range, every run's value, the change's median over the
parent's, and the number of pairs in which the change reads better (ties
count for neither side); per workload also the failed operations of every
run. ``--claim`` names the metric a change claims to improve: it is met when
the change wins at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's interquartile range.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(commit, dest):
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} failed")


def _run(commit, command, seed, seconds):
    """{workload: result} from the last stdout line of one benchmark run of ``commit``."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as dest:
        _export(commit, dest)
        done = subprocess.run([*command, "--workload", "all", "--seed", str(seed),
                               "--seconds", str(seconds)],
                              cwd=dest, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"benchmark of {commit} at seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _wins(parent, change, better):
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def summary(runs, metrics):
    """Per workload and metric, the statistics of the parent's and the change's runs.

    ``runs`` is a list of (parent, change) pairs of ``_run`` results and
    ``metrics`` maps each end-to-end metric to its ``better`` direction.
    """
    workloads = {}
    for name in runs[0][0]:
        rows = {}
        for metric, better in metrics.items():
            parent = [pair[0][name]["metrics"][metric]["value"] for pair in runs]
            change = [pair[1][name]["metrics"][metric]["value"] for pair in runs]
            rows[metric] = {
                "unit": runs[0][0][name]["metrics"][metric]["unit"], "better": better,
                "parent": _spread(parent), "change": _spread(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "change_wins": f"{_wins(parent, change, better)}/{len(runs)}",
                "parent_runs": parent, "change_runs": change}
        rows["failed_ops"] = {side: [pair[i][name]["failed"] for pair in runs]
                              for i, side in enumerate(("parent", "change"))}
        workloads[name] = rows
    return workloads


def claim_result(workloads, workload, metric, pairs):
    row = workloads[workload][metric]
    wins = _wins(row["parent_runs"], row["change_runs"], row["better"])
    gain = row["change"]["median"] - row["parent"]["median"]
    if row["better"] == "lower":
        gain = -gain
    return {"workload": workload, "metric": metric, "parent_median": row["parent"]["median"],
            "change_median": row["change"]["median"], "parent_iqr": row["parent"]["iqr"],
            "change_wins": f"{wins}/{pairs}",
            "met": 10 * wins >= 9 * pairs and gain > row["parent"]["iqr"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("pairs", metavar="N", type=int)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("N must be at least 2, for quartiles")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in config["end_to_end"]}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in {w["name"] for w in config["workloads"]} or metric not in metrics:
            parser.error(f"--claim {args.claim}: not a workload and end-to-end metric")
    commits = {"parent": _git("rev-parse", f"{args.parent}^{{commit}}"),
               "change": _git("rev-parse", "HEAD^{commit}")}
    command, seconds = config["command"], config["run_seconds"]
    seeds = [args.seed + i for i in range(args.pairs)]
    result = {
        "description": (
            "End-to-end metrics of the parent commit and of the change, from alternating "
            f"pairs of full benchmark runs, written by tools/bench_pairs.py. Each run is "
            f"`{' '.join(command)} --workload all --seed <seed> --seconds {seconds}` in a "
            "fresh export of its commit; the parent runs first in the odd pairs, the change "
            "first in the even ones. Per metric: median, first and third quartile (inclusive "
            "method) and interquartile range of each side, every run's value, and the number "
            "of pairs in which the change reads better."),
        "command": f"{' '.join(command)} --workload all --seed <seed> --seconds {seconds}",
        "machine": (f"{os.cpu_count()}-vCPU {platform.machine()}, Python "
                    f"{platform.python_version()}, one run at a time"),
        "commits": commits | {"change_src_tree": _git("rev-parse", f"{commits['change']}:src")},
        "seeds": seeds,
        "order": {str(s): "parent first" if i % 2 == 0 else "change first"
                  for i, s in enumerate(seeds)},
    }
    runs = []
    for i, seed in enumerate(seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        done = {}
        for side in sides:
            done[side] = _run(commits[side], command, seed, seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side} done", file=sys.stderr)
        runs.append((done["parent"], done["change"]))
        workloads = summary(runs, metrics) if len(runs) > 1 else None
        partial = result | {"pairs_done": len(runs)}
        if workloads is not None:
            if args.claim:
                partial["claim"] = claim_result(workloads, workload, metric, len(runs))
            partial["workloads"] = workloads
        args.out.write_text(json.dumps(partial, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
