"""Spans around the public functions of specparity's modules, recorded from
outside the program.

A ``Tracer`` replaces each target function, in every namespace that holds
it, with a wrapper that records a span: name, start, end, parent span and
op id. Spans stay in memory until the benchmark writes them out.
``op_metrics`` turns the spans of one operation into the per-layer metrics;
``self_seconds`` gives each span's duration minus the part of it that its
child spans cover.

Functions called per matrix element (``serial.fmt_value``) are not wrapped:
a span per kernel entry would cost more than the work it measures. Their
time shows as the self time of ``operators.write_kernel_*``.
"""
from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import CHECK_NAMES, HARMONIC_LEVELS


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    facts: dict = field(default_factory=dict)


def _solve_facts(spectrum, args, kwargs) -> dict:
    import numpy as np

    from specparity.schrodinger import DEGENERACY_RTOL

    e = spectrum.energies
    guard = DEGENERACY_RTOL * np.abs(e).max()
    return {
        "n": int(e.size),
        "degenerate_gaps": int(np.count_nonzero(np.diff(e) <= guard)),
        "energies_head": [float(x) for x in e[:HARMONIC_LEVELS]],
    }


def _kernel_facts(kernel, args, kwargs) -> dict:
    return {"n": kernel.n}


def _file_facts(result, args, kwargs) -> dict:
    kernel, path = args[0], args[1]
    return {"values": kernel.n * kernel.n, "bytes": os.path.getsize(path)}


def _report_facts(report, args, kwargs) -> dict:
    ratios = [
        c.residual / c.tolerance
        for c in report.checks
        if c.applicable and c.tolerance > 0  # node_count is exact (tolerance 0)
    ]
    return {
        "check_seconds": {c.name: c.seconds for c in report.checks},
        "worst_residual_ratio": max(ratios, default=0.0),
    }


def _text_facts(text, args, kwargs) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


# (module, function, span name, facts taken from the result after the span ends)
ALL_TARGETS = (
    ("specparity.cli", "build_config", "cli.build_config", None),
    ("specparity.cli", "cmd_solve", "cli.cmd_solve", None),
    ("specparity.cli", "cmd_verify", "cli.cmd_verify", None),
    ("specparity.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("specparity.cli", "cmd_export_kernel", "cli.cmd_export_kernel", None),
    ("specparity.schrodinger", "assemble", "schrodinger.assemble", None),
    ("specparity.schrodinger", "solve", "schrodinger.solve", _solve_facts),
    ("specparity.schrodinger", "check_orthonormality", "schrodinger.check_orthonormality", None),
    ("specparity.schrodinger", "check_completeness", "schrodinger.check_completeness", None),
    ("specparity.schrodinger", "count_nodes", "schrodinger.count_nodes", None),
    # schrodinger.solve calls scipy.linalg.eigh_tridiagonal by attribute
    ("scipy.linalg", "eigh_tridiagonal", "lapack.stemr", None),
    ("specparity.operators", "build_parity", "operators.build_parity", _kernel_facts),
    ("specparity.operators", "build_triparity", "operators.build_triparity", _kernel_facts),
    ("specparity.operators", "reconstruct_hamiltonian", "operators.reconstruct_hamiltonian", None),
    ("specparity.operators", "build_graded", "operators.build_graded", None),
    ("specparity.operators", "reflection_action", "operators.reflection_action", None),
    ("specparity.operators", "write_kernel_csv", "operators.write_kernel_csv", _file_facts),
    ("specparity.operators", "write_kernel_txt", "operators.write_kernel_txt", _file_facts),
    ("specparity.verify", "run_suite", "verify.run_suite", _report_facts),
    ("specparity.verify", "check_hermiticity", "verify.check_hermiticity", None),
    ("specparity.verify", "spectral_hermiticity_gap", "verify.spectral_hermiticity_gap", None),
    ("specparity.verify", "check_commutator", "verify.check_commutator", None),
    ("specparity.verify", "check_involution", "verify.check_involution", None),
    ("specparity.verify", "check_cube", "verify.check_cube", None),
    ("specparity.verify", "check_alternation", "verify.check_alternation", None),
    ("specparity.verify", "check_reflection_reduction", "verify.check_reflection_reduction", None),
    ("specparity.verify", "check_conservation", "verify.check_conservation", None),
    ("specparity.serial", "dumps", "serial.dumps", _text_facts),
)
# The untraced operations of a workload whose oracle needs the solved
# energies carry only this one wrapper.
SOLVE_TARGET = tuple(t for t in ALL_TARGETS if t[2] == "schrodinger.solve")

ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans around target functions while installed."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = None
        self._op = None
        self._restore = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span hangs off the span that was open on
        # the operation's thread when the worker ran (cli.cmd_sweep's pool).
        outer = stack or self._main_stack
        parent = outer[-1].id if outer else None
        span = Span(next(self._ids), name, parent, self._op, time.perf_counter(), time.process_time())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, facts):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if facts is not None:
                span.facts = facts(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name.startswith("specparity")]
        for modname, fname, span_name, facts in self.targets:
            module = importlib.import_module(modname)
            original = getattr(module, fname)
            wrapper = self._wrap(original, span_name, facts)
            for ns in {id(m): m for m in namespaces + [module]}.values():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; every span opened inside carries op_id."""
        self._op = op_id
        self._main_stack = self._stack()
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            self._main_stack = None

    def op_spans(self, op_id: int) -> list:
        return [s for s in self.spans if s.op == op_id]


def self_seconds(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def op_facts(spans) -> dict:
    """Fact name -> list of values over the spans of one operation."""
    out = defaultdict(list)
    for s in spans:
        for key, value in s.facts.items():
            out[key].append(value)
    return out


# Per-layer metric name -> unit for the metrics op_metrics derives from spans.
PER_LAYER_UNITS = {
    "schrodinger.assemble_s": "s",
    "schrodinger.solve_s": "s",
    "schrodinger.lapack_stemr_s": "s",
    "schrodinger.solve_overhead_s": "s",
    "schrodinger.degenerate_clusters": "count",
    "schrodinger.self_s": "s",
    "operators.build_parity_s": "s",
    "operators.build_triparity_s": "s",
    "operators.reconstruct_hamiltonian_s": "s",
    "operators.build_parity_gflops": "GFLOP/s",
    "operators.build_triparity_gflops": "GFLOP/s",
    "operators.write_kernel_csv_s": "s",
    "operators.write_kernel_txt_s": "s",
    "operators.kernel_bytes": "B",
    "operators.kernel_values_per_s": "1/s",
    "operators.self_s": "s",
    "verify.run_suite_s": "s",
    "verify.checks_s": "s",
    **{f"verify.check.{name}_s": "s" for name in CHECK_NAMES},
    "verify.worst_residual_ratio": "ratio",
    "verify.self_s": "s",
    "serial.dumps_s": "s",
    "serial.report_bytes": "B",
    "cli.build_config_s": "s",
    "cli.cmd_s": "s",
    "cli.sweep_cpu_per_wall": "ratio",
    "cli.self_s": "s",
}


def op_metrics(spans) -> dict:
    """Per-layer metrics of one traced operation (0 for a layer it never enters).

    Times are per-operation totals over every call. Flop counts are
    computed, not measured: 2n^3 for the real parity product and 8n^3 for
    the complex@real triparity product as written.
    """
    wall = defaultdict(float)
    cpu = defaultdict(float)
    layer_self = defaultdict(float)
    selfs = self_seconds(spans)
    for s in spans:
        wall[s.name] += s.end - s.start
        cpu[s.name] += s.cpu_end - s.cpu_start
        layer_self[s.name.split(".")[0]] += selfs[s.id]
    facts = defaultdict(list)
    for s in spans:
        facts[s.name].append(s.facts)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    parity_flops = sum(2.0 * f["n"] ** 3 for f in facts["operators.build_parity"])
    triparity_flops = sum(8.0 * f["n"] ** 3 for f in facts["operators.build_triparity"])
    kernel_files = facts["operators.write_kernel_csv"] + facts["operators.write_kernel_txt"]
    kernel_write_s = wall["operators.write_kernel_csv"] + wall["operators.write_kernel_txt"]
    reports = facts["verify.run_suite"]
    check_seconds = defaultdict(float)
    for r in reports:
        for name, sec in r["check_seconds"].items():
            check_seconds[name] += sec
    cmd_names = [n for n in wall if n.startswith("cli.cmd_")]

    return {
        "schrodinger.assemble_s": wall["schrodinger.assemble"],
        "schrodinger.solve_s": wall["schrodinger.solve"],
        "schrodinger.lapack_stemr_s": wall["lapack.stemr"],
        "schrodinger.solve_overhead_s": wall["schrodinger.solve"] - wall["lapack.stemr"],
        "schrodinger.degenerate_clusters": sum(f["degenerate_gaps"] for f in facts["schrodinger.solve"]),
        "schrodinger.self_s": layer_self["schrodinger"],
        "operators.build_parity_s": wall["operators.build_parity"],
        "operators.build_triparity_s": wall["operators.build_triparity"],
        "operators.reconstruct_hamiltonian_s": wall["operators.reconstruct_hamiltonian"],
        "operators.build_parity_gflops": rate(parity_flops, wall["operators.build_parity"]) / 1e9,
        "operators.build_triparity_gflops": rate(triparity_flops, wall["operators.build_triparity"]) / 1e9,
        "operators.write_kernel_csv_s": wall["operators.write_kernel_csv"],
        "operators.write_kernel_txt_s": wall["operators.write_kernel_txt"],
        "operators.kernel_bytes": sum(f["bytes"] for f in kernel_files),
        "operators.kernel_values_per_s": rate(sum(f["values"] for f in kernel_files), kernel_write_s),
        "operators.self_s": layer_self["operators"],
        "verify.run_suite_s": wall["verify.run_suite"],
        "verify.checks_s": sum(check_seconds.values()),
        **{f"verify.check.{name}_s": check_seconds[name] for name in CHECK_NAMES},
        "verify.worst_residual_ratio": max((r["worst_residual_ratio"] for r in reports), default=0.0),
        "verify.self_s": layer_self["verify"],
        "serial.dumps_s": wall["serial.dumps"],
        "serial.report_bytes": sum(f["bytes"] for f in facts["serial.dumps"]),
        "cli.build_config_s": wall["cli.build_config"],
        "cli.cmd_s": sum(wall[n] for n in cmd_names),
        "cli.sweep_cpu_per_wall": rate(cpu["cli.cmd_sweep"], wall["cli.cmd_sweep"]),
        "cli.self_s": layer_self["cli"],
    }
