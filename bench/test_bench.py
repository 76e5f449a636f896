"""The benchmark's own tests: ``python3 -m pytest bench`` from the repository root."""
import subprocess
import sys
from pathlib import Path

from spans import Span, self_seconds

HERE = Path(__file__).resolve().parent


def _span(sid, parent, start, end, name="x"):
    return Span(sid, name, parent, 0, start, 0.0, end=end)


def test_self_seconds_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps span 1 (two worker threads)
        _span(3, 1, 2.0, 3.0),
    ]
    selfs = self_seconds(spans)
    assert selfs[0] == 5.0  # children cover 1..6
    assert selfs[1] == 2.0
    assert selfs[2] == 3.0
    assert selfs[3] == 1.0


def test_smoke_emits_every_benchmark_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run_bench.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
