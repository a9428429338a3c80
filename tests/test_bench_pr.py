"""tools/bench_pr.py's summary of bench/run.py results, on canned output lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pr import spread, summarize_runs  # noqa: E402


def canned(op_p50_s, peak_rss_mb, correct=True, failed=0):
    """One run.py stdout: human lines, then the JSON result as the last line."""
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "op_p50_s": {"value": op_p50_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return "workload tables, seed 1, 10 s, trace 0\n  op_p50_s 0.0004 s\n%s\n" % (
        json.dumps(result))


def test_summary_gives_median_and_quartiles_per_metric():
    runs = [canned(v, 19.0 + k) for k, v in enumerate((0.5, 0.1, 0.4, 0.2, 0.3))]
    summary = summarize_runs(runs)
    assert (summary["runs"], summary["correct"], summary["attempted"], summary["failed"]) == (
        5, True, 500, 0)
    op = summary["metrics"]["op_p50_s"]
    assert op["unit"] == "s" and op["values"] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert op["median"] == 0.3
    assert (op["q1"], op["q3"]) == pytest.approx((0.15, 0.45))
    assert op["iqr"] == pytest.approx(0.3)
    assert summary["metrics"]["peak_rss_mb"]["median"] == 21.0


def test_one_failed_run_marks_the_workload_incorrect():
    summary = summarize_runs([canned(0.1, 19.0), canned(0.2, 19.0, correct=False, failed=3)])
    assert (summary["correct"], summary["failed"]) == (False, 3)


def test_a_single_value_is_its_own_quartiles():
    assert spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0, "values": [2.0]}
