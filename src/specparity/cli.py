"""Command-line front end: solve, verify, sweep, export-kernel.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, 3 numerical failure or any other unexpected error. Configuration
comes from flags, from a JSON config file, or both: the flags are turned
into a document of the file's shape and laid over the file key by key.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SuiteStageError
from .grids import Grid, make_grid
from .operators import build_parity, gradings, write_kernel
from .potentials import NAMED_POTENTIALS, Potential, named, polynomial
from .schrodinger import Spectrum, _max_abs, _row_blocks, assemble, solve
from .serial import fmt_float, fmt_rows
from .verify import _tolerance, reflection_applies, reflection_defect, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_RICHARDSON_RTOL = 1e-9  # h-matching tolerance for the 2:1 sweep pair
_KERNELS = tuple(gradings())  # the labels --kernels takes; the first is the default


@dataclass
class ExperimentConfig:
    potential: Potential
    grids: tuple  # one Grid; for the sweep command its sorted, distinct grids, at least 3
    omega_branch: int = +1
    truncate: int | None = None
    tolerances: dict = field(default_factory=dict)
    out: Path = Path(".")
    save_modes: bool = False
    kernels: tuple = _KERNELS[:1]


def _parse_number_list(text, kind) -> list:
    try:
        return [kind(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}") from exc


def _n_for_spacing(x_min: float, x_max: float, h) -> int:
    """Interior point count whose spacing on [x_min, x_max] is nearest to h."""
    if isinstance(h, bool) or not isinstance(h, (int, float)) or not 0 < h < math.inf:
        raise ConfigError(f"sweep spacing must be a positive, finite real, got {h!r}")
    return int(round((x_max - x_min) / h)) - 1


def _section(value, label: str, known: str | None = None) -> dict:
    """A config object, which must hold only the keys named in ``known`` (any when None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"config {label!r} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(known.split())) if known is not None else []
    if unknown:
        raise ConfigError(f"config {label!r} has unknown key(s) {unknown} (known: {known})")
    return value


def _entries(value, label: str) -> list:
    """A config list."""
    if not isinstance(value, list):
        raise ConfigError(f"config {label!r} must be a JSON list, got {value!r}")
    return value


def _count(value, label: str) -> int:
    """A count from the config file: a JSON integer, and neither a bool nor a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _real(value, label: str) -> float:
    """A real from the config file: a JSON number, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    return float(value)


def _load_config_file(path: str) -> dict:
    """The config document, whose sections are checked to be objects of known keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _section(doc, path, "potential grid suite sweep out save_modes kernels")
    _section(doc.get("grid", {}), "grid", "x_min x_max n")
    suite = _section(doc.get("suite", {}), "suite", "omega_branch truncate tolerances")
    if len(_section(doc.get("sweep", {}), "sweep", "n_values h_values")) > 1:
        raise ConfigError("config 'sweep' must give either n_values or h_values, not both")
    _section(suite.get("tolerances", {}), "suite.tolerances")
    return doc


def _flags_as_config(args: argparse.Namespace) -> dict:
    """The flags as the document a config file would hold, None where a flag is not given; text parsing only."""
    flag = vars(args).get  # each subcommand defines only the flags it reads
    if args.poly is not None and args.potential is not None:
        raise ConfigError("give either --potential or --poly, not both")
    if flag("sweep_n") is not None and flag("sweep_h") is not None:
        raise ConfigError("give either --sweep-n or --sweep-h, not both")
    # sweep --jobs is validated and has no effect: the sweep runs in one thread
    if flag("jobs") is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    potential = {"poly": _parse_number_list(args.poly, float)} if args.poly is not None else None
    if args.potential is not None:
        potential = {"named": args.potential}
    sweep = {"n_values": _parse_number_list(args.sweep_n, int)} if flag("sweep_n") is not None else None
    if flag("sweep_h") is not None:
        sweep = {"h_values": _parse_number_list(args.sweep_h, float)}
    truncate = flag("truncate")
    with suppress(TypeError, ValueError):  # an int where the text parses as one
        truncate = int(truncate)
    tolerances = {}
    for pair in flag("tol") or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects name=value, got {pair!r}")
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
    return {
        "potential": potential,
        "grid": {"x_min": args.xmin, "x_max": args.xmax, "n": flag("n")},
        "suite": {"omega_branch": flag("omega_branch"), "truncate": truncate, "tolerances": tolerances},
        "sweep": sweep,
        "kernels": [tok for tok in args.kernels.split(",") if tok.strip()] if flag("kernels") else None,
        "save_modes": flag("save_modes") or None,
        "out": args.out,
    }


_MERGED = {"grid", "suite", "suite.tolerances"}  # laid over per key; any other value is replaced whole


def _lay_over(doc: dict, flags: dict, prefix: str = "") -> dict:
    """The flags' document laid over the config file's; a None is a flag not given."""
    merged = dict(doc)
    for key, value in flags.items():
        if prefix + key in _MERGED:
            merged[key] = _lay_over(doc.get(key, {}), value, f"{prefix}{key}.")
        elif value is not None:
            merged[key] = value
    return merged


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    doc = _load_config_file(args.config) if args.config else {}
    doc = _lay_over(doc, _flags_as_config(args))
    grid_doc, suite_doc, sweep_doc = (doc.get(key, {}) for key in ("grid", "suite", "sweep"))

    if "potential" not in doc:
        raise ConfigError("no potential given (use --potential, --poly, or a config file)")
    spec = doc["potential"]
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"potential spec must be {{'named': ...}} or {{'poly': [...]}}, got {spec!r}")
    if "named" in spec:
        if not isinstance(spec["named"], str):
            raise ConfigError(f"potential.named must be a string, got {spec['named']!r}")
        pot = named(spec["named"])
    elif "poly" in spec:
        pot = polynomial([_real(c, "potential.poly entry") for c in _entries(spec["poly"], "potential.poly")])
    else:
        raise ConfigError(f"unknown potential spec {spec!r}")

    def bound(key):
        if grid_doc.get(key) is None:
            raise ConfigError(f"missing --{key.replace('_', '')} (flag or config file)")
        return _real(grid_doc[key], f"grid.{key}")

    x_min, x_max = bound("x_min"), bound("x_max")
    # the sweep section holds at most one of the two keys
    sizes = [_count(k, "sweep.n_values entry") for k in _entries(sweep_doc.get("n_values", []), "sweep.n_values")]
    sizes += [_n_for_spacing(x_min, x_max, h) for h in _entries(sweep_doc.get("h_values", []), "sweep.h_values")]

    n = _count(grid_doc["n"], "grid.n") if grid_doc.get("n") is not None else None
    if n is None and args.command != "sweep":  # sweep has no --n flag: its sizes are what it reads
        raise ConfigError("missing --n (flag or config file)")

    branch_text = suite_doc.get("omega_branch", "+")
    if branch_text not in ("+", "-"):
        raise ConfigError(f"suite.omega_branch must be '+' or '-', got {branch_text!r}")

    truncate = suite_doc.get("truncate", "full")
    if isinstance(truncate, str) and truncate.lower() == "full":
        truncate = None
    else:
        truncate = _count(truncate, "--truncate / suite.truncate (or 'full')")
        if truncate < 1:
            raise ConfigError(f"--truncate must be >= 1, got {truncate}")

    tolerances = {name: _tolerance(name, val) for name, val in suite_doc.get("tolerances", {}).items()}

    kernels = _entries(doc.get("kernels", [_KERNELS[0]]), "kernels")
    for k in kernels:
        if not isinstance(k, str) or k.strip().upper() not in _KERNELS:
            raise ConfigError(f"kernels must be {' or '.join(_KERNELS)}, got {k!r}")
    kernels = tuple(dict.fromkeys(k.strip().upper() for k in kernels))  # in order, each once
    if not kernels:
        raise ConfigError(f"kernels must name at least one of {' and '.join(_KERNELS)}")

    save_modes = doc.get("save_modes", False)
    if not isinstance(save_modes, bool):
        raise ConfigError(f"config 'save_modes' must be true or false, got {save_modes!r}")

    # Checks that need no solve run here, before the output directory exists.
    if args.command == "sweep":
        if len(sizes) < 3:
            raise ConfigError("sweep needs at least 3 grid sizes (--sweep-n or config)")
        sizes = sorted(set(sizes))
        if len(sizes) < 3:
            raise ConfigError("sweep needs at least 3 distinct grid sizes")
        if truncate is not None and truncate > sizes[0]:
            raise ConfigError(f"--truncate {truncate} exceeds the smallest sweep size {sizes[0]}")
    else:
        sizes = [n]
    grids = tuple(make_grid(x_min, x_max, size) for size in sizes)
    for grid in grids[::-1]:  # refuses a T with a non-finite entry, finest first: 2/h**2 is largest there
        assemble(pot, grid)
    if args.command == "export-kernel" and truncate is not None and truncate > n:
        raise ConfigError(f"truncation {truncate} out of range 1..{n}")

    out = doc.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"config 'out' must be a string, got {out!r}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")

    return ExperimentConfig(
        potential=pot,
        grids=grids,
        omega_branch=+1 if branch_text == "+" else -1,
        truncate=truncate,
        tolerances=tolerances,
        out=out,
        save_modes=save_modes,
        kernels=kernels,
    )


def _write_spectrum_csv(s: Spectrum, path: Path, save_modes: bool) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if save_modes:
            fh.write("n,E," + ",".join(f"phi_{i}" for i in range(s.grid.n)) + "\n")
            scale = np.sqrt(s.grid.h)  # phi_k = u_k / sqrt(h), one column at a time
            rows = (np.r_[k, s.energies[k], s.modes[:, k] / scale] for k in range(s.n_modes))
        else:
            fh.write("n,E\n")
            rows = (np.r_[k, s.energies[k]] for k in range(s.n_modes))
        fh.writelines(fmt_rows(rows, ","))


def cmd_solve(cfg: ExperimentConfig) -> int:
    (grid,) = cfg.grids
    spectrum = solve(assemble(cfg.potential, grid))
    path = cfg.out / "spectrum.csv"
    _write_spectrum_csv(spectrum, path, cfg.save_modes)
    print(f"# potential {cfg.potential.describe()} grid ({grid.x_min}, {grid.x_max}, n={grid.n})")
    for k in range(min(10, spectrum.n_modes)):
        print(f"E[{k}] = {spectrum.energies[k]:.12f}")
    print(f"spectrum written to {path}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    (grid,) = cfg.grids
    report = run_suite(
        cfg.potential, grid, cfg.tolerances, omega_branch=cfg.omega_branch
    )
    path = cfg.out / "report.json"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_json())
    print(f"# potential {cfg.potential.describe()} grid ({grid.x_min}, {grid.x_max}, n={grid.n})")
    print(f"{'check':32s} {'residual':>13s} {'tolerance':>10s}  status")
    for c in report.checks:
        if not c.applicable:
            print(f"{c.name:32s} {'n/a':>13s} {c.tolerance:10.1e}  N/A")
        else:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.name:32s} {c.residual:13.3e} {c.tolerance:10.1e}  {status}")
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    print(f"report written to {path}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _sweep_row(cfg: ExperimentConfig, grid: Grid, levels: int) -> tuple:
    """The grid solved and reduced to what its row needs of the solve.

    That is E_0.., ||P - J|| and ||P_m - J|| where ``reflection_applies``, else None
    and ||P_m - P||; P is built only for a column that reads it, and the spectrum is
    dropped on return.
    """
    spectrum = solve(assemble(cfg.potential, grid))
    applies = reflection_applies(cfg.potential, grid)
    parity = build_parity(spectrum) if applies or cfg.truncate is not None else None
    refl = reflection_defect(parity) if applies else None
    trunc_resid = None
    if cfg.truncate is not None:
        trunc = build_parity(spectrum, truncate=cfg.truncate)
        if applies:
            trunc_resid = reflection_defect(trunc)
        else:  # one row block of P_m - P at a time
            trunc_resid = max(_max_abs(trunc.action[rows] - parity.action[rows]) for rows in _row_blocks(grid.n))
    return spectrum.energies[:levels], refl, trunc_resid


def cmd_sweep(cfg: ExperimentConfig) -> int:
    ns = [grid.n for grid in cfg.grids]
    levels = min(10, ns[0])

    # Each grid is solved, reduced to its row and dropped before the next, in
    # this thread: scipy's stemr holds the GIL, so worker threads would not
    # overlap, and BLAS already spreads each product over the cores.
    rows = [_sweep_row(cfg, grid, levels) for grid in cfg.grids]

    hs = np.array([grid.h for grid in cfg.grids])
    energies = np.array([row[0] for row in rows])
    # Reference: Richardson extrapolation from the finest 2:1 spacing pair,
    # which removes the leading h^2 term; otherwise fall back to the finest
    # grid's energies.
    ref = energies[-1]
    coarse = np.nonzero(np.abs(hs - 2.0 * hs[-1]) <= _RICHARDSON_RTOL * hs[-1])[0]
    richardson = coarse.size > 0
    if richardson:
        ref = (4.0 * energies[-1] - energies[coarse[0]]) / 3.0
    errors = np.abs(energies - ref)
    orders = [[None] * levels] + [
        [float(np.log2(c / f)) if c > 0 and f > 0 else None for c, f in zip(coarser, finer)]
        for coarser, finer in zip(errors[:-1], errors[1:])
    ]

    header = ["n", "h", *(f"{col}{k}" for col in ("E", "err", "order") for k in range(levels))]
    header += ["reflection_residual", "trunc_m", "trunc_residual"]
    path = cfg.out / "sweep.csv"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for grid, (e, refl, trunc_resid), err, order in zip(cfg.grids, rows, errors, orders):
            cells = (grid.n, grid.h, *e, *err, *order, refl, cfg.truncate, trunc_resid)
            fh.write(",".join("" if x is None else fmt_float(x) for x in cells) + "\n")

    print(f"# sweep over n = {ns} ({'Richardson' if richardson else 'finest-grid'} reference)")
    print(f"{'n':>6s} {'h':>12s} {'err_E0':>12s} {'order_E0':>9s} {'reflection':>12s}")
    for grid, (_, refl, _), err, order in zip(cfg.grids, rows, errors, orders):
        order_text = f"{order[0]:9.3f}" if order[0] is not None else "        -"
        refl_text = f"{refl:12.3e}" if refl is not None else "         n/a"
        print(f"{grid.n:6d} {grid.h:12.6f} {err[0]:12.3e} {order_text} {refl_text}")
    print(f"sweep table written to {path}")
    return EXIT_OK


def cmd_export_kernel(cfg: ExperimentConfig) -> int:
    (grid,) = cfg.grids
    spectrum = solve(assemble(cfg.potential, grid))
    table = gradings(cfg.omega_branch)
    for label in cfg.kernels:
        kern = table[label].build(spectrum, cfg.truncate)
        csv_path = cfg.out / f"kernel_{label}.csv"
        txt_path = cfg.out / f"kernel_{label}.txt"
        write_kernel(kern, csv_path, txt_path)
        print(f"kernel {label} written to {csv_path} and {txt_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    # parent parsers for the flag groups that several subcommands read
    common, grid_n, truncate, branch = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    common.add_argument("--potential", choices=sorted(NAMED_POTENTIALS), help="named potential family")
    common.add_argument("--poly", help="comma-separated polynomial coefficients c0,c1,...")
    common.add_argument("--xmin", type=float, help="left domain edge")
    common.add_argument("--xmax", type=float, help="right domain edge")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--config", help="JSON config file; flags are laid over its values")
    grid_n.add_argument("--n", type=int, help="number of interior grid points")
    truncate.add_argument("--truncate", help="mode truncation M, or 'full'")
    branch.add_argument("--omega-branch", choices=["+", "-"], help="triparity branch sign")

    parser = argparse.ArgumentParser(
        prog="specparity",
        description="Solve 1D Schrodinger problems and verify spectral grading operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common, grid_n], help="solve the eigenproblem, write spectrum.csv")
    p_solve.add_argument("--save-modes", action="store_true", help="include eigenfunction samples in spectrum.csv")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common, grid_n, branch],
                              help="run the verification suite, write report.json")
    p_verify.add_argument("--tol", action="append", metavar="CHECK=VALUE", help="tolerance override (repeatable)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", parents=[common, truncate], help="grid-refinement study, write sweep.csv")
    p_sweep.add_argument("--sweep-n", help="comma-separated interior point counts")
    p_sweep.add_argument("--sweep-h", help="comma-separated target spacings")
    p_sweep.add_argument(
        "--jobs", type=int,
        help="accepted and checked (>= 1) but has no effect: scipy's stemr holds the GIL, "
             "so the sweep solves in one thread and BLAS uses the cores",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_export = sub.add_parser("export-kernel", parents=[common, grid_n, truncate, branch],
                              help="dump operator kernels as CSV/text")
    p_export.add_argument("--kernels", help=f"comma-separated subset of {','.join(_KERNELS)} (default {_KERNELS[0]})")
    p_export.set_defaults(func=cmd_export_kernel)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except SuiteStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return EXIT_CONFIG if isinstance(cause, ValueError) else EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # e.g. MemoryError; exit 1 is reserved for failed checks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
