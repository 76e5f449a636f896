"""The benchmark's tracer finds the functions it wraps by name.

A rename in ``src/`` that drops one of them breaks every traced benchmark
run; this test shows it in the fast suite.
"""
import importlib
from pathlib import Path


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import ALL_TARGETS

    missing = [
        f"{modname}.{fname}"
        for modname, fname, *_ in ALL_TARGETS
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []
