"""The arithmetic of ``tools/bench_record.py`` on synthetic runs; no benchmark is started."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

OP_S = {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25}
PEAK_RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a test started a process: {args}")

    monkeypatch.setattr(subprocess, "run", refuse)


def test_seeds_are_an_inclusive_range_or_one_integer():
    assert bench_record.parse_seeds("3..5") == [3, 4, 5]
    assert bench_record.parse_seeds("7") == [7]
    for bad in ("5..3", "a..b", "1..", ""):
        with pytest.raises(ValueError):
            bench_record.parse_seeds(bad)


def test_quartiles_are_the_benchmarks_exclusive_quartiles():
    assert bench_record.quartiles([1.3, 1.0, 1.2, 1.0, 1.1]) == pytest.approx({"q1": 1.0, "median": 1.1, "q3": 1.25})
    assert bench_record.quartiles([4.0]) == {"q1": 4.0, "median": 4.0, "q3": 4.0}


def test_a_tie_counts_for_neither_side_and_a_small_gain_stays_within_the_parents_spread():
    v = bench_record.pair_verdict([1.0, 1.2, 1.1, 1.3, 1.0], [0.9, 1.2, 1.0, 1.1, 0.95], OP_S)
    assert (v["wins"], v["pairs"]) == (4, 5)  # the second pair is a tie
    assert v["gain"] == pytest.approx(0.1)
    assert v["parent"]["q3"] - v["parent"]["q1"] == pytest.approx(0.25)
    assert not v["gain_exceeds_parent_iqr"]
    assert v["verdict"] == "within"  # the parent's IQR equals the bound, so it is not wider


def test_a_gain_beyond_the_parents_interquartile_range():
    v = bench_record.pair_verdict([1.0, 1.01, 1.02], [0.8, 0.81, 0.82], OP_S)
    assert v["wins"] == 3 and v["gain"] == pytest.approx(0.2)
    assert v["gain_exceeds_parent_iqr"] and v["verdict"] == "within"


def test_the_bound_is_an_amount_in_the_metrics_unit():
    v = bench_record.pair_verdict([96.16, 96.2, 96.24], [96.4, 96.5, 96.3], PEAK_RSS)
    assert v["wins"] == 0 and v["gain"] == pytest.approx(-0.2)
    assert v["verdict"] == "worse"  # 0.2 MB past a 0.1 MB bound
    assert bench_record.pair_verdict([96.16, 96.2, 96.24], [96.15, 96.25, 96.3], PEAK_RSS)["verdict"] == "within"
    # 0.1 s worse on a 0.3 s median is a third of it, and still inside the 0.25 s bound
    assert bench_record.pair_verdict([0.3, 0.3, 0.3], [0.4, 0.4, 0.4], OP_S)["verdict"] == "within"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    parent = [96.0, 96.2, 96.3, 96.1, 96.25]  # IQR 0.225 MB against a 0.1 MB bound
    v = bench_record.pair_verdict(parent, [96.05, 96.15, 96.3, 96.2, 96.1], PEAK_RSS)
    assert v["parent"]["q3"] - v["parent"]["q1"] == pytest.approx(0.225)
    assert v["gain"] == pytest.approx(0.05) and v["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert bench_record.pair_verdict(parent, [95.9, 95.8, 95.95, 95.7, 95.85], PEAK_RSS)["verdict"] == "within"
    # a median worse by more than the bound is worse, however wide the spread
    assert bench_record.pair_verdict(parent, [96.4, 96.5, 96.3, 96.6, 96.45], PEAK_RSS)["verdict"] == "worse"


def test_a_higher_is_better_metric_counts_a_rise_as_a_gain():
    metric = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
    v = bench_record.pair_verdict([10.0, 10.0, 10.0], [12.0, 9.0, 11.0], metric)
    assert v["wins"] == 2 and v["gain"] == pytest.approx(1.0)


def _synthetic_stdout(seed, op_s):
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"op_s": {"value": op_s, "unit": "s"}, "peak_rss_mb": {"value": 96.0 + seed, "unit": "MB"}}}
    return "\n".join([
        "# env " + json.dumps({"workload": "w", "seed": seed, "numpy": "2.x"}),
        "# workload w seed 1 trace 0",
        "op_s         0.9 s",
        json.dumps(result),
    ])


def test_a_run_is_read_from_its_env_line_and_its_last_line():
    env, result = bench_record.parse_run(_synthetic_stdout(4, 0.5))
    assert env == {"workload": "w", "seed": 4, "numpy": "2.x"}
    assert result["metrics"]["op_s"]["value"] == 0.5 and result["attempted"] == 9
    with pytest.raises(ValueError):
        bench_record.parse_run("op_s 0.9\n{}")


def test_record_writes_each_run_and_the_quartiles_across_runs(tmp_path, monkeypatch):
    def fake_run_once(tree, workload, seed, seconds):
        env, result = bench_record.parse_run(_synthetic_stdout(seed, 0.1 * seed))
        return env, {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": {k: m["value"] for k, m in result["metrics"].items()}}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    path = bench_record.record("t", ["w"], [1, 2, 3], 25, {"op_s": "s", "peak_rss_mb": "MB"})
    assert path == tmp_path / "BENCH_t.json"
    doc = json.loads(path.read_text())
    entry = doc["workloads"]["w"]
    assert entry["env"] == {"workload": "w", "numpy": "2.x"}
    assert [r["seed"] for r in entry["runs"]] == [1, 2, 3]
    assert entry["runs"][0] == {"seed": 1, "correct": True, "attempted": 9, "failed": 0,
                                "metrics": {"op_s": 0.1, "peak_rss_mb": 97.0}}
    assert entry["summary"]["op_s"] == pytest.approx({"unit": "s", "q1": 0.1, "median": 0.2, "q3": 0.3})
    assert entry["summary"]["peak_rss_mb"]["median"] == 98.0
