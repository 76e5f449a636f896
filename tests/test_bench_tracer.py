"""The benchmark's tracer finds the functions it wraps by name, and its workloads parse.

A rename in ``src/`` that drops one of them, or a CLI change that rejects a
workload's argument list, breaks every benchmark run; these tests show it
in the fast suite.
"""
import importlib
from pathlib import Path

import pytest

from specparity import cli


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import ALL_TARGETS

    missing = [
        f"{modname}.{fname}"
        for modname, fname, *_ in ALL_TARGETS
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


@pytest.mark.parametrize("kind", ["argv", "smoke_argv"])
def test_every_workload_argv_passes_the_set_up_probe(tmp_path, monkeypatch, kind):
    # the benchmark's set-up probe: parse the argument list and build its config
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        argv = [*getattr(workload, kind), "--out", str(tmp_path / name)]
        assert cli.build_config(cli._build_parser().parse_args(argv)).out.is_dir(), name


def test_the_tracer_sees_each_grading_build(tmp_path, monkeypatch):
    # the grading table looks its builders up when it builds, so the tracer's wrappers see each build
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import ALL_TARGETS, Tracer

    grid = ["--potential", "harmonic", "--xmin", "-8", "--xmax", "8", "--n", "99"]
    commands = (["verify", *grid], ["export-kernel", *grid, "--kernels", "P,Q"])
    tracer = Tracer(ALL_TARGETS)
    tracer.install()
    try:
        for op_id, argv in enumerate(commands):
            with tracer.op(op_id):
                assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    finally:
        tracer.uninstall()
    for op_id, argv in enumerate(commands):
        names = [span.name for span in tracer.op_spans(op_id)]
        assert names.count("operators.build_parity") == 1, argv[0]
        assert names.count("operators.build_triparity") == 1, argv[0]
