#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics, or compare this tree with a revision in pairs.

    python3 tools/bench_record.py --label L --seeds 1..3
    python3 tools/bench_record.py --against HEAD~1 --workload verify-asym-999 --seeds 11..13
    python3 tools/bench_record.py --argv "verify --potential harmonic --xmin=-8 --xmax=8 --n 1999" [--against HEAD~1]

Each run is one ``bench/run_bench.py --workload W --seed S --trace 0`` subprocess
at the run length ``BENCHMARK.json`` sets, so this tool adds no measurement of its
own: it reads the run's ``# env`` line and its last-line JSON.

``--label L`` runs every workload (or the one ``--workload`` names) once per seed
and writes ``BENCH_<L>.json`` at the repository root: per workload, the
environment, each run's metrics with ``correct``, ``attempted`` and ``failed``,
and each metric's median and quartiles across the runs.

Each workload's entry also holds ``head_src_sha256``, the digest that
``bench/run_bench.py`` records as ``src_sha256``, taken over ``HEAD``'s committed
``src/specparity/*.py``, and ``src_matches_head``, whether the measured source is
``HEAD``'s. The run's ``commit`` names ``HEAD`` also when the tree has uncommitted
changes, so a file recorded before its change is committed reads ``false`` there.
Outside a git checkout both are null.

``--against REV`` extracts REV with ``git archive`` into ``.bench-against/``
and runs the workload on both trees in alternating pairs, REV first on odd pairs,
one pair per seed. For each end-to-end metric of ``BENCHMARK.json`` it prints both
sides' medians and quartiles, how many pairs this tree wins (ties count for
neither side), whether the median gap in this tree's favour exceeds REV's
interquartile range, and a verdict against the metric's bound, an amount in the
metric's unit: ``worse`` when this tree's median is worse than REV's by more than
the bound; otherwise ``unresolved`` when REV's interquartile range is wider than
the bound and not every run of this tree beats every run of REV; otherwise
``within``. It exits 0 only when every verdict is ``within`` and this tree failed
no more operations than REV. The extracted tree is removed on exit.

``--argv "<cli args>"`` measures a command line that is none of the benchmark's
workloads, and its output says so. In a fresh interpreter it calls
``specparity.cli.main`` once untimed, as a warm-up, and then in a closed loop while
the next call's expected cost fits in ``--seconds`` (at least once), each call
writing into one reused output directory whose ``report.json`` is removed first.
It prints the median wall time per call (``op_s``), the number of timed calls, the
calls that exited nonzero and the interpreter's ``ru_maxrss`` in MB, at the
caller's BLAS thread count. ``--runs N`` repeats that N times; with ``--against
REV`` each run is a pair on REV and this tree, ordered as above, and the table
gives medians, quartiles, wins and whether the median gain exceeds REV's
interquartile range, but no verdict: the bounds of ``BENCHMARK.json`` belong to
its workloads. It exits 0 when no call exited nonzero.

A wrapper on ``verify._stage``, installed from outside the package, reads the
process's VmHWM from ``/proc/self/status`` after each stage and check of a
``verify`` call (null where that file is missing), so the first name after which
VmHWM reaches its final value is where the call raised the resident peak, if it
did. From each ``report.json`` a call wrote, the loop takes every stage's
``timings`` and every check's ``seconds``; a run's figure for a name is the median
over its timed calls. For a ``verify`` line a second table gives, per name in
pipeline order, the median and quartiles of those figures across the runs and the
median VmHWM after the name on the warm-up call and on the last timed call, with
``--against`` also the pairs this tree wins and whether the median gain exceeds
REV's interquartile range; below it, per run, the names where those two calls
raised VmHWM to its last value (None where it did not rise).
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parents[1]
AGAINST_TREE = ROOT / ".bench-against"

sys.path.insert(0, str(ROOT / "bench"))
from run_bench import quartiles as bench_quartiles  # noqa: E402  the benchmark's own quartiles

OUTSIDE = "outside the benchmark's workloads"
ARGV_METRICS = ({"name": "op_s", "better": "lower"}, {"name": "ru_maxrss_mb", "better": "lower"})

# The --argv loop, run as ``python -c ARGV_LOOP SECONDS OUT ARG...`` in a fresh interpreter.
# A call that exits nonzero prints its output to stderr. The last stdout line is the result,
# with one record per call, the warm-up first.
ARGV_LOOP = """\
import gc, io, json, resource, statistics, sys, time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from specparity import cli, verify
seconds, report, argv = float(sys.argv[1]), Path(sys.argv[2]) / "report.json", [*sys.argv[3:], "--out", sys.argv[2]]

def vmhwm_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) / 1024.0 for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None

hwm, stage = {}, verify._stage

def probed(name, fn, *args, **kwargs):
    try:
        return stage(name, fn, *args, **kwargs)
    finally:
        hwm[name] = vmhwm_mb()

verify._stage = probed

def call():
    report.unlink(missing_ok=True)
    hwm.clear()
    start = vmhwm_mb()
    sink = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(argv)
    record = {"wall": time.perf_counter() - t0, "exit": code, "vmhwm_start_mb": start}
    if code != 0:
        print(f"exit {code}: {sink.getvalue()[-2000:]}", file=sys.stderr)
    if report.exists():
        doc = json.loads(report.read_text(encoding="utf-8"))
        figures = {**doc["timings"], **{c["name"]: c["seconds"] for c in doc["checks"]}}
        record.update(seconds={name: figures[name] for name in hwm}, vmhwm_mb=dict(hwm))
    return record

calls, walls = [call()], []  # the warm-up is not timed
while not walls or sum(walls) + statistics.median(walls) <= seconds:
    calls.append(call())
    walls.append(calls[-1]["wall"])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"op_s": statistics.median(walls), "ru_maxrss_mb": rss, "calls": calls}))
"""


def parse_seeds(text: str) -> list:
    """``a..b`` as the seeds a to b inclusive, or a single seed."""
    first, sep, last = text.partition("..")
    try:
        seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    except ValueError as exc:
        raise ValueError(f"--seeds takes a..b or one integer, got {text!r}") from exc
    if not seeds:
        raise ValueError(f"--seeds range {text!r} is empty")
    return seeds


def quartiles(values) -> dict:
    """Median and quartiles, by ``bench/run_bench.py``'s own ``quartiles``."""
    q1, median, q3 = bench_quartiles(values)
    return {"q1": q1, "median": median, "q3": q3}


def parse_run(stdout: str) -> tuple:
    """The ``# env`` line's JSON and the last line's result JSON of one benchmark run."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), None)
    if env is None:
        raise ValueError("benchmark output has no '# env' line")
    return env, json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run of ``workload`` on the sources of ``tree``: (env, run record)."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env, result = parse_run(proc.stdout)
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    return env, run


def run_argv(tree: Path, argv: list, seconds: float) -> dict:
    """One ``ARGV_LOOP`` of ``argv`` on the sources of ``tree``: op_s, ru_maxrss_mb and the calls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="bench-argv-") as work:
        cmd = [sys.executable, "-c", ARGV_LOOP, str(seconds), str(Path(work) / "out"), *argv]
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the --argv loop in {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_stage(call: dict):
    """The first name, in call order, after which VmHWM reads the call's last value, or None
    where the call did not raise VmHWM above its value at the start or has no readings."""
    start, vmhwm = call.get("vmhwm_start_mb"), call.get("vmhwm_mb", {})
    if start is None or not vmhwm or None in vmhwm.values():
        return None
    peak = max(vmhwm.values())
    return next(name for name, mb in vmhwm.items() if mb == peak) if peak > start else None


def summarize_stages(calls: list) -> dict:
    """One run's figures: the timed calls (the warm-up is ``calls[0]``) and those that exited
    nonzero; per name, from the calls that wrote a report, the median seconds over the timed calls,
    VmHWM after it on the warm-up and the last timed call, and where each peaked."""
    timed = [c for c in calls[1:] if "seconds" in c]
    names = list(timed[0]["seconds"]) if timed else []
    return {
        "attempted": len(calls) - 1,
        "failed": sum(c["exit"] != 0 for c in calls[1:]),
        "seconds": {name: quartiles([c["seconds"][name] for c in timed])["median"] for name in names},
        "vmhwm_first_mb": calls[0].get("vmhwm_mb", {}),
        "vmhwm_last_mb": timed[-1]["vmhwm_mb"] if timed else {},
        "peak_first": peak_stage(calls[0]),
        "peak_last": peak_stage(timed[-1]) if timed else None,
    }


def _median_of(runs: list, key: str, name: str):
    values = [r[key][name] for r in runs if r[key].get(name) is not None]
    return quartiles(values)["median"] if values else None


def _stage_rows(sides: dict) -> list:
    """Per name, in pipeline order: each side's quartiles of seconds and median VmHWM figures,
    and with two sides ``pair_stats`` of the seconds."""
    order = next(iter(sides.values()))[0]["seconds"]
    rows = []
    for name in order:
        row = {"name": name}
        for side, runs in sides.items():
            row[side] = {"seconds": quartiles([r["seconds"][name] for r in runs]),
                         "vmhwm_first_mb": _median_of(runs, "vmhwm_first_mb", name),
                         "vmhwm_last_mb": _median_of(runs, "vmhwm_last_mb", name)}
        if len(sides) == 2:
            row["pairs"] = pair_stats(*[[r["seconds"][name] for r in sides[s]] for s in ("parent", "change")], "lower")
        rows.append(row)
    return rows


def _mb(value) -> str:
    return "-" if value is None else f"{value:.1f}"


def source_digest(files: dict) -> str:
    """The digest of ``bench/run_bench.py``'s ``_source_digest`` over ``{file name: bytes}``."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name])
    return h.hexdigest()[:16]


def head_source_digest() -> str | None:
    """``source_digest`` of ``HEAD``'s ``src/specparity/*.py``; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD", "src/specparity"],
                             capture_output=True)
    if archive.returncode != 0:
        return None
    files = {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar:
            path = PurePosixPath(member.name)
            if member.isfile() and path.parent == PurePosixPath("src/specparity") and path.suffix == ".py":
                files[path.name] = tar.extractfile(member).read()
    return source_digest(files)


def summarize(runs: list, units: dict) -> dict:
    """Each metric's unit, median and quartiles across the runs."""
    return {name: {"unit": unit, **quartiles([r["metrics"][name] for r in runs])} for name, unit in units.items()}


def record(label: str, workloads: list, seeds: list, seconds: float, units: dict) -> Path:
    doc = {"label": label, "run_seconds": seconds, "trace": 0, "workloads": {}}
    head = head_source_digest()
    for workload in workloads:
        runs, env = [], None
        for seed in seeds:
            env, run = run_once(ROOT, workload, seed, seconds)
            runs.append(run)
            print(f"{workload} " + _metrics_text(run), flush=True)
        env.pop("seed")  # each run's seed is in its record
        doc["workloads"][workload] = {
            "env": env,
            "head_src_sha256": head,
            "src_matches_head": None if head is None else env.get("src_sha256") == head,
            "runs": runs,
            "summary": summarize(runs, units),
        }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def pair_stats(parent: list, change: list, better: str) -> dict:
    """Quartiles, wins and gain of one metric; ``parent`` and ``change`` hold one value per pair."""
    sign = 1.0 if better == "lower" else -1.0  # a positive gain is the change reading better
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    return {
        "parent": p,
        "change": c,
        "wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "gain": gain,
        "gain_exceeds_parent_iqr": gain > p["q3"] - p["q1"],
        "beats_every_run": min(sign * a for a in parent) > max(sign * b for b in change),
    }


def pair_verdict(parent: list, change: list, metric: dict) -> dict:
    """``pair_stats`` and the verdict against the metric's bound, an amount in its unit."""
    stats = pair_stats(parent, change, metric["better"])
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    if -stats["gain"] > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not stats["beats_every_run"]:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {**stats, "verdict": verdict}


def _metrics_text(run: dict) -> str:
    cells = "  ".join(f"{name} {value:.6g}" for name, value in run["metrics"].items())
    seed = f"seed {run['seed']}  " if "seed" in run else ""
    return f"{seed}{cells}  failed {run['failed']}/{run['attempted']}"


@contextmanager
def checkout(rev: str):
    """The files of ``rev``, extracted by ``git archive`` into ``AGAINST_TREE`` and removed after."""
    tree = AGAINST_TREE
    if tree.exists():
        raise RuntimeError(f"{tree} exists; remove it first")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True,
                             capture_output=True)
    try:
        tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        yield tree
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def alternate(tree: Path, pairs: list, run) -> dict:
    """``run(pair, tree)`` on ``tree`` (the parent) and this tree, parent first on odd pairs."""
    sides = {"parent": [], "change": []}
    for number, pair in enumerate(pairs, start=1):
        for side in ["parent", "change"] if number % 2 else ["change", "parent"]:
            sides[side].append(run(pair, tree if side == "parent" else ROOT))
            print(f"pair {number} {side:6s} " + _metrics_text(sides[side][-1]), flush=True)
    return sides


def _table(title: str, sides: dict, metrics: list, verdicts: bool) -> list:
    """Print one row per metric; return the rows' ``pair_stats`` or ``pair_verdict``."""
    print(f"\n{title}")
    print(f"{'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} wins  gain>IQR"
          + ("  verdict" if verdicts else ""))
    rows = []
    for metric in metrics:
        name = metric["name"]
        values = [[r["metrics"][name] for r in sides[s]] for s in ("parent", "change")]
        v = pair_verdict(*values, metric) if verdicts else pair_stats(*values, metric["better"])
        cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]" for q in (v["parent"], v["change"])]
        verdict = f"  {v['verdict']} (bound {metric['bound']:g} {metric['unit']})" if verdicts else ""
        print(f"{name:12s} {cells[0]:34s} {cells[1]:34s} {v['wins']}/{v['pairs']:<3d}"
              f" {'yes' if v['gain_exceeds_parent_iqr'] else 'no':8s}{verdict}".rstrip())
        rows.append(v)
    return rows


def compare(rev: str, workload: str, seeds: list, seconds: float, metrics: list) -> bool:
    """Alternating pairs of ``rev`` and this tree; prints every run and the verdict table."""
    with checkout(rev) as tree:
        sides = alternate(tree, seeds, lambda seed, root: run_once(root, workload, seed, seconds)[1])
    rows = _table(f"{workload}: {rev} (parent) against this tree (change), {len(seeds)} pairs", sides, metrics, True)
    failed = [sum(r["failed"] for r in sides[s]) for s in ("parent", "change")]
    print(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return all(v["verdict"] == "within" for v in rows) and failed[1] <= failed[0]


def measure_argv(argv: list, runs: int, seconds: float, rev: str | None) -> bool:
    """``runs`` loops of ``argv`` on this tree, or pairs against ``rev``; True if no call failed."""
    command = "specparity " + shlex.join(argv)

    def run(_, root):
        result = run_argv(root, argv, seconds)
        return {**summarize_stages(result["calls"]), "metrics": {m["name"]: result[m["name"]] for m in ARGV_METRICS}}

    print(f"# {OUTSIDE}: {command}", flush=True)
    if rev is None:
        sides = {"change": [run(None, ROOT) for _ in range(runs)]}
        for number, r in enumerate(sides["change"], start=1):
            print(f"run {number} " + _metrics_text(r))
    else:
        with checkout(rev) as tree:
            sides = alternate(tree, list(range(runs)), run)
        _table(f"{command} ({OUTSIDE}): {rev} (parent) against this tree (change), {runs} pairs",
               sides, list(ARGV_METRICS), False)
    if all(r["seconds"] for side in sides.values() for r in side):  # every run read a verify report
        print(f"\n{'name':28s}" + "".join(f" {s + ' s median [q1, q3]':34s} {'VmHWM MB first/last':20s}" for s in sides)
              + ("  wins  gain>IQR" if rev else ""))
        for row in _stage_rows(sides):
            cells = "".join(
                f" {q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]".ljust(35)
                + f" {_mb(row[s]['vmhwm_first_mb'])}/{_mb(row[s]['vmhwm_last_mb'])}".ljust(21)
                for s in sides for q in [row[s]["seconds"]]
            )
            pairs = row.get("pairs")
            tail = f"  {pairs['wins']}/{pairs['pairs']:<3d} {'yes' if pairs['gain_exceeds_parent_iqr'] else 'no'}" if pairs else ""
            print(f"{row['name']:28s}{cells}{tail}".rstrip())
        for side, side_runs in sides.items():
            peaks = [(r["peak_first"], r["peak_last"]) for r in side_runs]
            print(f"{side}: peak reached after (first call, last call), per run: {peaks}")
    return not any(r["failed"] for side in sides.values() for r in side)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write BENCH_<label>.json")
    parser.add_argument("--against", metavar="REV", help="compare this tree with REV in alternating pairs")
    parser.add_argument("--argv", metavar='"ARGS"', help=f"time one specparity command line ({OUTSIDE})")
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (required with --against)")
    parser.add_argument("--seeds", help="a..b: the seeds, one run (or one pair) each; not with --argv")
    parser.add_argument("--runs", type=int, help="with --argv: the number of runs (or pairs), default 1")
    parser.add_argument("--seconds", type=float, help="with --argv: the length of each loop, default run_seconds")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.argv is not None:
        if args.label is not None or args.workload is not None or args.seeds is not None:
            parser.error("--argv takes --against, --runs and --seconds only")
        runs = 1 if args.runs is None else args.runs
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if runs < 1 or not 0 <= seconds < math.inf:
            parser.error("--runs must be at least 1 and --seconds finite and not negative")
        return 0 if measure_argv(shlex.split(args.argv), runs, seconds, args.against) else 1
    if args.runs is not None or args.seconds is not None:
        parser.error("--runs and --seconds go with --argv")
    if (args.label is None) == (args.against is None):
        parser.error("give one of --label, --against and --argv")
    if args.seeds is None:
        parser.error(f"--{'label' if args.label is not None else 'against'} needs --seeds")
    names = [w["name"] for w in spec["workloads"]]
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.label is not None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        path = record(args.label, [args.workload] if args.workload else names, seeds, spec["run_seconds"], units)
        print(f"written {path.relative_to(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--against needs --workload")
    return 0 if compare(args.against, args.workload, seeds, spec["run_seconds"], spec["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
