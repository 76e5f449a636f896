#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics, or compare this tree with a revision in pairs.

    python3 tools/bench_record.py --label L --seeds 1..3
    python3 tools/bench_record.py --against HEAD~1 --workload verify-asym-999 --seeds 11..13

Each run is one ``bench/run_bench.py --workload W --seed S --trace 0`` subprocess
at the run length ``BENCHMARK.json`` sets, so this tool adds no measurement of its
own: it reads the run's ``# env`` line and its last-line JSON.

``--label L`` runs every workload (or the one ``--workload`` names) once per seed
and writes ``BENCH_<L>.json`` at the repository root: per workload, the
environment, each run's metrics with ``correct``, ``attempted`` and ``failed``,
and each metric's median and quartiles across the runs.

``--against REV`` checks REV out with ``git worktree add`` into ``.bench-against/``
and runs the workload on both trees in alternating pairs, REV first on odd pairs,
one pair per seed. For each end-to-end metric of ``BENCHMARK.json`` it prints both
sides' medians and quartiles, how many pairs this tree wins (ties count for
neither side), whether the median gap in this tree's favour exceeds REV's
interquartile range, and a verdict against the metric's bound, an amount in the
metric's unit: ``worse`` when this tree's median is worse than REV's by more than
the bound; otherwise ``unresolved`` when REV's interquartile range is wider than
the bound and not every run of this tree beats every run of REV; otherwise
``within``. It exits 0 only when every verdict is ``within`` and this tree failed
no more operations than REV. The worktree is removed on exit.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AGAINST_TREE = ROOT / ".bench-against"

sys.path.insert(0, str(ROOT / "bench"))
from run_bench import quartiles as bench_quartiles  # noqa: E402  the benchmark's own quartiles


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


def summarize(runs: list, units: dict) -> dict:
    """Each metric's unit, median and quartiles across the runs."""
    return {name: {"unit": unit, **quartiles([r["metrics"][name] for r in runs])} for name, unit in units.items()}


def record(label: str, workloads: list, seeds: list, seconds: float, units: dict) -> Path:
    doc = {"label": label, "run_seconds": seconds, "trace": 0, "workloads": {}}
    for workload in workloads:
        runs, env = [], None
        for seed in seeds:
            env, run = run_once(ROOT, workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: " + _metrics_text(run), flush=True)
        env.pop("seed")  # each run's seed is in its record
        doc["workloads"][workload] = {"env": env, "runs": runs, "summary": summarize(runs, units)}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def pair_verdict(parent: list, change: list, metric: dict) -> dict:
    """The pair verdict on one end-to-end metric; ``parent`` and ``change`` hold one value per pair."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # a positive gain is the change reading better
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    spread = p["q3"] - p["q1"]
    beats_every_run = min(sign * a for a in parent) > max(sign * b for b in change)
    if -gain > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not beats_every_run:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": p,
        "change": c,
        "wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "gain": gain,
        "gain_exceeds_parent_iqr": gain > spread,
        "verdict": verdict,
    }


def _metrics_text(run: dict) -> str:
    cells = "  ".join(f"{name} {value:.6g}" for name, value in run["metrics"].items())
    return f"{cells}  failed {run['failed']}/{run['attempted']}"


def compare(rev: str, workload: str, seeds: list, seconds: float, metrics: list) -> bool:
    """Alternating pairs of ``rev`` and this tree; prints every run and the verdict table."""
    tree = AGAINST_TREE
    if tree.exists():
        raise RuntimeError(f"{tree} exists; remove it with 'git worktree remove --force {tree}'")
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), rev], check=True,
                   capture_output=True, text=True)
    try:
        sides = {"parent": [], "change": []}
        for pair, seed in enumerate(seeds, start=1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for side in order:
                _, run = run_once(tree if side == "parent" else ROOT, workload, seed, seconds)
                sides[side].append(run)
                print(f"pair {pair} seed {seed} {side:6s} " + _metrics_text(run), flush=True)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True,
                       capture_output=True, text=True)
    print(f"\n{workload}: {rev} (parent) against this tree (change), {len(seeds)} pairs")
    print(f"{'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} wins  gain>IQR"
          "  verdict")
    within = True
    for metric in metrics:
        name = metric["name"]
        v = pair_verdict([r["metrics"][name] for r in sides["parent"]],
                         [r["metrics"][name] for r in sides["change"]], metric)
        cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]" for q in (v["parent"], v["change"])]
        print(f"{name:12s} {cells[0]:34s} {cells[1]:34s} {v['wins']}/{v['pairs']:<3d}"
              f" {'yes' if v['gain_exceeds_parent_iqr'] else 'no':8s}"
              f"  {v['verdict']} (bound {metric['bound']:g} {metric['unit']})")
        within = within and v["verdict"] == "within"
    failed = [sum(r["failed"] for r in sides[s]) for s in ("parent", "change")]
    print(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return within and failed[1] <= failed[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="write BENCH_<label>.json")
    mode.add_argument("--against", metavar="REV", help="compare this tree with REV in alternating pairs")
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (required with --against)")
    parser.add_argument("--seeds", required=True, help="a..b: the seeds, one run (or one pair) each")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
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
