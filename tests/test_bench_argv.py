"""``tools/bench_record.py --argv`` on real command lines at n=9, in fresh interpreters."""
import importlib.util
import re
from pathlib import Path

import pytest

import specparity as sp

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

COMMAND = "verify --potential harmonic --xmin=-8 --xmax=8 --n 9"


def test_argv_mode_times_a_command_line_and_labels_it_outside_the_workloads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--argv", COMMAND, "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# outside the benchmark's workloads: specparity {COMMAND}"
    # --seconds 0 leaves one timed call after the warm-up
    match = re.fullmatch(r"run 1 op_s (\S+)  ru_maxrss_mb (\S+)  failed 0/1", lines[1])
    assert match and float(match[1]) > 0 and float(match[2]) > 0
    assert list(tmp_path.iterdir()) == []  # each call writes into a temporary directory


def test_stages_mode_reads_each_stage_and_check_of_a_real_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--argv", COMMAND, "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# outside the benchmark's workloads: specparity {COMMAND}"
    rows = {line.split()[0]: line.split() for line in lines[4:-1]}  # after the run line and the header
    # the four stages of a solved suite and its 15 checks, in pipeline order
    assert list(rows)[:4] == ["assemble", "solve", "build_triparity", "triparity_nonhermiticity"]
    assert set(rows) == {"assemble", "solve", "build_triparity", "build_parity", *sp.DEFAULT_TOLERANCES}
    assert all(float(cells[1]) > 0 for cells in rows.values())
    first, last = (float(mb) for mb in rows["node_count"][4].split("/"))
    assert 0 < first <= last  # VmHWM never falls
    assert lines[-1].startswith("change: peak reached after (first call, last call), per run: [(")
    assert list(tmp_path.iterdir()) == []  # each call writes into a temporary directory


def test_argv_mode_prints_no_stage_table_for_a_command_other_than_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command = "solve --potential harmonic --xmin=-8 --xmax=8 --n 9 --save-modes"
    assert bench_record.main(["--argv", command, "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# outside the benchmark's workloads: specparity {command}"
    assert re.fullmatch(r"run 1 op_s \S+  ru_maxrss_mb \S+  failed 0/1", lines[1]) and len(lines) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [["--seeds", "1..2"], ["--workload", "verify-asym-999"], ["--runs", "0"],
                                   ["--label", "x"]])
def test_argv_mode_refuses_the_workload_flags_and_a_run_count_below_one(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--argv", COMMAND, *extra])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--label", "x", "--seeds", "1", "--runs", "2"], ["--against", "HEAD"],
                                  ["--seeds", "1"]])
def test_the_workload_modes_refuse_argv_flags_and_need_seeds_and_one_mode(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2
