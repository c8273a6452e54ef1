"""The summary arithmetic of tools/bench_pairs.py on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(ops, p50, failed=0):
    return {"certify": {"failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}}}


_METRICS = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def test_summary_counts_wins_in_the_better_direction_and_ties_for_neither():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0]
    change = [110.0, 101.0, 112.0, 113.0, 90.0]      # a win, a tie, two wins, a loss
    runs = [(_run(p, 1.0 / p), _run(c, 1.0 / c, failed=int(i == 4)))
            for i, (p, c) in enumerate(zip(parent, change))]
    rows = bench_pairs.summary(runs, _METRICS)["certify"]
    assert rows["ops_per_s"]["change_wins"] == "3/5"
    assert rows["op_p50_ms"]["change_wins"] == "3/5"
    assert rows["ops_per_s"]["parent"] == {"median": 102.0, "q1": 101.0, "q3": 103.0,
                                           "iqr": 2.0}
    assert rows["ops_per_s"]["change_over_parent"] == pytest.approx(110.0 / 102.0)
    assert rows["failed_ops"] == {"parent": [0] * 5, "change": [0, 0, 0, 0, 1]}


@pytest.mark.parametrize("change, met", [
    ([110.0] * 9 + [90.0], True),     # 9 of 10 pairs, median well past the parent's IQR
    ([110.0] * 8 + [90.0] * 2, False),  # 8 of 10 pairs
    ([100.6] * 10, False),            # every pair, but within the parent's IQR of 1.0
])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_parent_iqr(change, met):
    parent = [99.0, 99.5, 100.0, 100.5, 101.0, 99.0, 99.5, 100.0, 100.5, 101.0]
    runs = [(_run(p, 1.0), _run(c, 1.0)) for p, c in zip(parent, change)]
    workloads = bench_pairs.summary(runs, _METRICS)
    assert bench_pairs.claim_result(workloads, "certify", "ops_per_s", 10)["met"] is met
