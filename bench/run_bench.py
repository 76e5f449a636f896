#!/usr/bin/env python3
"""Benchmark of the specparity command line, run from the repository root.

    python3 bench/run_bench.py --workload verify-asym-999 --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --smoke

A closed loop with one caller: each operation is one in-process call of
``specparity.cli.main`` with the workload's fixed argument list (see
``workloads.py``), started only after the previous one returned and its
outputs were checked. One process runs one workload, so set-up time and
peak memory belong to that workload. The seed sets only the interleaving:
where the set-up launches fall between operations, and in a traced run
which operation of each traced/untraced pair goes first.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median wall seconds
per operation), ``setup_s`` (median wall time of a fresh interpreter that
imports specparity.cli and parses the workload's config) and
``peak_rss_mb``. ``--trace 1`` alternates traced and untraced operations
and reports the per-layer metrics of ``spans.py``, the process CPU use of
the untraced operations and the tracing overhead; its spans, each with its
self time, go to ``bench/_run/traces/``. Every run prints an environment
line; the last line of standard output is the JSON result.

``--workload all`` runs every workload in its own process and prints one
table. ``--smoke`` runs every workload, traced and untraced, at tiny n and
fails unless each emits exactly the metric names and units listed in
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from spans import ALL_TARGETS, PER_LAYER_UNITS, SOLVE_TARGET, Tracer, op_facts, op_metrics, self_seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"

# Fresh-interpreter set-up launches per untraced run; setup_s is their median.
SETUP_LAUNCHES = 5
SMOKE_SETUP_LAUNCHES = 2
CHILD_TIMEOUT_S = 170

SETUP_PROBE = (
    "import sys\n"
    "from specparity import cli\n"
    "cli.build_config(cli._build_parser().parse_args(sys.argv[1:]))\n"
)


# Per-layer metrics taken from the run rather than from the spans.
RUN_UNITS = {
    "process.cpu_s": "s",  # CPU seconds per untraced op, all threads
    "process.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",  # median traced op_s minus median untraced op_s
    "trace.spans_per_op": "count",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def high_percentile(values):
    """Highest of p50..p99 with at least ten samples above it, or None."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100)
    for p in (99, 95, 90, 75, 50):
        if sum(v > cuts[p - 1] for v in values) >= 10:
            return p, cuts[p - 1]
    return None


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "specparity").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _largest_n(argv) -> int:
    if "--sweep-n" in argv:
        return max(int(k) for k in argv[argv.index("--sweep-n") + 1].split(","))
    return int(argv[argv.index("--n") + 1])


def environment(workload, argv, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    l2, l3 = _getconf("LEVEL2_CACHE_SIZE"), _getconf("LEVEL3_CACHE_SIZE")
    n = _largest_n(argv)
    real_mb, complex_mb = 8 * n * n / 2**20, 16 * n * n / 2**20
    if l2 and l3:
        place = "between L2 and L3" if l2 < real_mb * 2**20 < l3 else "outside the L2..L3 range"
        llc = f"; below 4x L3 ({4 * l3 / 2**20:.0f} MiB), so memory bandwidth is not measured"
    else:
        place, llc = "cache sizes unknown", ""
    return {
        "workload": workload.name,
        "argv": list(argv),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": threads,
        "nproc": nproc(),
        "l2_bytes_per_core": l2,
        "l3_bytes_shared": l3,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "dense_arrays": f"n={n}: {real_mb:.1f} MiB real, {complex_mb:.1f} MiB complex, {place}{llc}",
        "counts": "flop and byte counts are computed from n, not measured",
    }


def _gist(output: str) -> str:
    lines = [ln.strip() for ln in output.splitlines() if "FAIL" in ln or "error" in ln.lower()]
    return " | ".join(lines)[-1000:] or output.strip()[-300:]


def call_main(cli, argv):
    """(exit code or None, captured output) of one in-process CLI call."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(list(argv))
    except Exception:  # the loop keeps going; the op counts as failed
        return None, sink.getvalue() + traceback.format_exc()
    return rc, sink.getvalue()


class Run:
    """One workload in this process: operations, set-up launches, results."""

    def __init__(self, workload, seed: int, seconds: float, traced_run: bool, smoke: bool):
        from specparity import cli  # after run_workload has set the BLAS threads

        self.cli = cli
        self.workload = workload
        self.argv = workload.smoke_argv if smoke else workload.argv
        self.seconds = seconds
        self.traced_run = traced_run
        self.launches = SMOKE_SETUP_LAUNCHES if smoke else SETUP_LAUNCHES
        self.rng = random.Random(seed)
        self.out = RUN_DIR / f"out-{os.getpid()}"
        self.op_argv = [*self.argv, "--out", str(self.out)]
        self.tracer = Tracer(ALL_TARGETS)
        self.capture = Tracer(SOLVE_TARGET) if workload.captures_energies else None
        self.ops = []  # dicts: id, traced, wall, cpu, cost, errors
        self.setup = []
        self.errors = []

    def setup_launch(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *self.op_argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.errors.append(f"set-up launch exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        self.setup.append(wall)

    def operation(self, traced: bool) -> None:
        op_id = len(self.ops)
        tracer = self.tracer if traced else self.capture
        gc.collect()
        if tracer:
            tracer.install()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            with tracer.op(op_id) if tracer else nullcontext():
                rc, output = call_main(self.cli, self.op_argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        finally:
            if tracer:
                tracer.uninstall()
        facts = op_facts(tracer.op_spans(op_id)) if tracer else {}
        if rc == 0:
            try:
                errors = self.workload.check(self.argv, str(self.out), facts)
            except Exception:  # a malformed output file is a failed op, not a crash
                errors = [traceback.format_exc()]
        else:
            errors = [f"exit code {rc}: {_gist(output)}"]
        cost = time.perf_counter() - t0
        self.ops.append({"id": op_id, "traced": traced, "wall": wall, "cpu": cpu, "cost": cost, "errors": errors})
        for e in errors:
            print(f"FAIL op {op_id}: {e}")

    def measure(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            # Untimed warm-up on the same command path at tiny n: first-call
            # imports and lazy set-up inside numpy/scipy.
            rc, output = call_main(self.cli, [*self.workload.smoke_argv, "--out", str(self.out)])
            if rc != 0:
                self.errors.append(f"warm-up exited {rc}: {_gist(output)}")
            if self.traced_run:
                self._measure_traced()
            else:
                self._measure_untraced()
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _budget_left(self, unit_costs) -> bool:
        """Start another unit only if its expected cost fits in --seconds."""
        if not unit_costs:
            return True
        return sum(unit_costs) + statistics.median(unit_costs) <= self.seconds

    def _measure_untraced(self) -> None:
        pending = self.launches
        while self._budget_left([op["cost"] for op in self.ops]):
            if pending and self.rng.random() < 0.5:
                self.setup_launch()
                pending -= 1
            self.operation(traced=False)
        for _ in range(pending):
            self.setup_launch()

    def _measure_traced(self) -> None:
        pairs = []
        while self._budget_left(pairs):
            order = [True, False]
            self.rng.shuffle(order)
            for traced in order:
                self.operation(traced)
            pairs.append(self.ops[-1]["cost"] + self.ops[-2]["cost"])

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])

    def end_to_end(self) -> dict:
        walls = [op["wall"] for op in self.ops]
        q1, med, q3 = quartiles(walls)
        hp = high_percentile(walls)
        hp_text = f"p{hp[0]} {hp[1]:.4f} s" if hp else "no percentile above p50 has 10 samples beyond it"
        s1, setup_med, s3 = quartiles(self.setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"op_s         {med:.4f} s  (n={len(walls)}, q1 {q1:.4f}, q3 {q3:.4f}; {hp_text})")
        print(f"setup_s      {setup_med:.4f} s  (n={len(self.setup)}, q1 {s1:.4f}, q3 {s3:.4f})")
        print(f"peak_rss_mb  {rss_mb:.1f} MB  (ru_maxrss of this process)")
        print(f"fail_ratio   {self.failed()}/{len(self.ops)} = {self.failed() / len(self.ops):.4f}")
        return {
            "op_s": {"value": med, "unit": "s"},
            "setup_s": {"value": setup_med, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    def per_layer(self, env: dict) -> dict:
        traced = [op for op in self.ops if op["traced"]]
        plain = [op for op in self.ops if not op["traced"]]
        per_op = [op_metrics(self.tracer.op_spans(op["id"])) for op in traced]
        values = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER_UNITS}
        units = dict(PER_LAYER_UNITS)
        values["process.cpu_s"] = statistics.median(op["cpu"] for op in plain)
        values["process.cpu_per_wall"] = statistics.median(op["cpu"] / op["wall"] for op in plain)
        values["trace.overhead_s"] = statistics.median(op["wall"] for op in traced) - statistics.median(
            op["wall"] for op in plain
        )
        values["trace.spans_per_op"] = statistics.median(len(self.tracer.op_spans(op["id"])) for op in traced)
        units.update(RUN_UNITS)
        for name, value in values.items():
            print(f"{name:42s} {value:.6g} {units[name]}")
        print(f"traced ops {len(traced)}, untraced ops {len(plain)}, failed {self.failed()}/{len(self.ops)}")
        selfs = self_seconds(self.tracer.spans)
        by_name = {}
        for s in self.tracer.spans:
            by_name.setdefault(s.name, 0.0)
            by_name[s.name] += selfs[s.id] / len(traced)
        print("self time per traced op, by span:")
        for name, sec in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {sec:.6f} s")
        self._write_spans(env, selfs)
        return {name: {"value": values[name], "unit": units[name]} for name in values}

    def _write_spans(self, env: dict, selfs: dict) -> None:
        path = RUN_DIR / "traces" / f"{self.workload.name}-seed{env['seed']}-{os.getpid()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s.start for s in self.tracer.spans), default=0.0)
        doc = {
            "env": env,
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                 "start_s": s.start - t0, "end_s": s.end - t0, "self_s": selfs[s.id]}
                for s in self.tracer.spans
            ],
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "specparity" / "__init__.py").is_file():
        print(f"error: no specparity sources under {SRC}", file=sys.stderr)
        return 2
    threads = 1 if workload.single_blas_thread else nproc()
    # OpenBLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    run = Run(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    env = environment(workload, run.argv, args.seed, threads)
    print("# env " + json.dumps(env))
    run.measure()
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    metrics = run.per_layer(env) if args.trace else run.end_to_end()
    for e in run.errors:
        print(f"FAIL {e}")
    failed = run.failed()
    result = {
        "correct": failed == 0 and not run.errors,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return proc, lines, result


def run_all(args) -> int:
    ok = True
    table = []
    for name in WORKLOADS:
        proc, lines, result = _child(name, args.seed, args.seconds, args.trace, args.smoke)
        print("\n".join(line for line in lines[:-1] if not line.startswith("# env")))
        if result is None:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        ok = ok and result["correct"]
        table.append((name, result))
    print()
    for name, r in table:
        cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items()) if not args.trace else ""
        ratio = r["failed"] / r["attempted"]
        print(f"{name:20s} {cells}  fail_ratio {r['failed']}/{r['attempted']} = {ratio:.3f}")
    return 0 if ok else 1


def run_smoke(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.py")
        return 1
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc, lines, result = _child(name, args.seed, 1, trace, smoke=True)
            problems = []
            if result is None:
                problems.append(f"no result (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            else:
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if got != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(got))
                    extra = sorted(set(got) - set(wanted[trace]))
                    wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                    problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {wrong}")
                if not result["correct"] or result["attempted"] < 1:
                    problems.append("\n".join(line for line in lines if line.startswith("FAIL")) or "not correct")
            ok = ok and not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {name} trace={trace} " + "; ".join(problems))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny n; without --workload, check every metric name")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        return run_smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
