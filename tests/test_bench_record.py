"""The arithmetic of ``tools/bench_record.py`` on synthetic runs; no benchmark is started."""
import importlib.util
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"
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


def test_the_source_digest_is_the_benchmarks():
    run_bench = sys.modules["run_bench"]  # imported by the tool
    files = {p.name: p.read_bytes() for p in (ROOT / "src" / "specparity").glob("*.py")}
    assert bench_record.source_digest(files) == run_bench._source_digest()
    assert bench_record.source_digest({"a.py": b"1", "b.py": b"2"}) != bench_record.source_digest({"a.py": b"2", "b.py": b"1"})


def test_the_head_digest_reads_the_committed_sources_of_the_package(tmp_path, monkeypatch):
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        for name, data in (("src/specparity/b.py", b"b"), ("src/specparity/a.py", b"a"),
                           ("src/specparity/notes.txt", b"n"), ("src/specparity/sub/c.py", b"c")):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    calls = []

    def fake_git(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=archive.getvalue())

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.head_source_digest() is None  # no .git: no process
    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(subprocess, "run", fake_git)
    assert bench_record.head_source_digest() == bench_record.source_digest({"a.py": b"a", "b.py": b"b"})
    assert calls == [["git", "-C", str(tmp_path), "archive", "--format=tar", "HEAD", "src/specparity"]]


@pytest.mark.parametrize("head, matches", [("0123", True), ("4567", False), (None, None)])
def test_record_says_whether_the_measured_source_is_heads(tmp_path, monkeypatch, head, matches):
    def fake_run_once(tree, workload, seed, seconds):
        return {"workload": workload, "seed": seed, "src_sha256": "0123"}, {
            "seed": seed, "correct": True, "attempted": 1, "failed": 0, "metrics": {"op_s": 0.1}}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    monkeypatch.setattr(bench_record, "head_source_digest", lambda: head)
    doc = json.loads(bench_record.record("t", ["w", "v"], [1], 25, {"op_s": "s"}).read_text())
    for entry in doc["workloads"].values():
        assert entry["env"]["src_sha256"] == "0123"
        assert entry["head_src_sha256"] == head and entry["src_matches_head"] is matches


def _call(seconds, vmhwm, start=50.0):
    return {"exit": 0, "seconds": seconds, "vmhwm_start_mb": start, "vmhwm_mb": vmhwm}


def test_a_stage_run_takes_the_median_of_its_timed_calls_and_where_each_call_peaked():
    warm_up = _call({"solve": 9.0, "build_parity": 9.0}, {"solve": 60.0, "build_parity": 70.0})
    calls = [warm_up,
             _call({"solve": 0.3, "build_parity": 0.2}, {"solve": 70.0, "build_parity": 70.0}, start=70.0),
             _call({"solve": 0.1, "build_parity": 0.4}, {"solve": 70.0, "build_parity": 72.5}, start=70.0),
             _call({"solve": 0.2, "build_parity": 0.3}, {"solve": 72.5, "build_parity": 72.5}, start=72.5)]
    summary = bench_record.summarize_stages(calls)
    assert summary["seconds"] == pytest.approx({"solve": 0.2, "build_parity": 0.3})  # the warm-up is not timed
    assert list(summary["seconds"]) == ["solve", "build_parity"]  # call order
    assert summary["vmhwm_first_mb"] == warm_up["vmhwm_mb"] and summary["failed"] == 0
    assert summary["peak_first"] == "build_parity"
    assert summary["peak_last"] is None  # the last call did not raise VmHWM
    assert bench_record.peak_stage(calls[2]) == "build_parity"
    assert bench_record.peak_stage(_call({}, {"solve": None})) is None  # no /proc/self/status


def test_a_stage_run_counts_a_call_without_a_report_as_failed():
    # a call that exits nonzero fails; only a call that wrote a report adds stage figures
    calls = [_call({"solve": 1.0}, {"solve": 60.0}), {"exit": 3}, _call({"solve": 0.5}, {"solve": 60.0}, start=60.0),
             {**_call({"solve": 0.7}, {"solve": 60.0}, start=60.0), "exit": 1}, {"exit": 0}]
    summary = bench_record.summarize_stages(calls)
    assert (summary["failed"], summary["attempted"]) == (2, 4)
    assert summary["seconds"] == {"solve": 0.6}
    assert summary["vmhwm_last_mb"] == {"solve": 60.0}  # from the last call with a report


@pytest.mark.parametrize("seconds", ["inf", "nan", "-1"])
def test_argv_mode_refuses_a_loop_length_that_is_negative_or_not_finite(seconds, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--argv", "verify --n 9", "--seconds", seconds])
    assert exc.value.code == 2


def test_stage_rows_give_each_sides_quartiles_and_the_pairs():
    def run(solve, vmhwm):
        return {"seconds": {"solve": solve}, "vmhwm_first_mb": {"solve": vmhwm}, "vmhwm_last_mb": {"solve": vmhwm + 1}}

    sides = {"parent": [run(1.0, 60.0), run(1.2, 61.0), run(1.1, 62.0)],
             "change": [run(0.9, 58.0), run(1.0, 59.0), run(1.2, 60.0)]}
    [row] = bench_record._stage_rows(sides)
    assert row["name"] == "solve"
    assert row["parent"]["seconds"]["median"] == pytest.approx(1.1)
    assert row["change"]["vmhwm_first_mb"] == 59.0 and row["change"]["vmhwm_last_mb"] == 60.0
    assert row["pairs"]["wins"] == 2 and row["pairs"]["gain"] == pytest.approx(0.1)
