"""Command-line front end: solve, verify, sweep, export-kernel.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, 3 numerical failure or any other unexpected error. Configuration
comes from flags, from a JSON config file, or both; flags override file
values.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SuiteStageError
from .grids import Grid, make_grid
from .operators import build_parity, build_triparity, write_kernel_csv, write_kernel_txt
from .potentials import NAMED_POTENTIALS, Potential, is_even, named, polynomial
from .schrodinger import Spectrum, assemble, solve
from .serial import fmt_float
from .verify import _tolerance, reflection_defect, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_RICHARDSON_RTOL = 1e-9  # h-matching tolerance for the 2:1 sweep pair


@dataclass
class ExperimentConfig:
    potential: Potential
    x_min: float
    x_max: float
    n: int
    omega_branch: int = +1
    truncate: int | None = None
    tolerances: dict = field(default_factory=dict)
    sweep_n: list | None = None
    out: Path = Path(".")
    jobs: int = 1
    save_modes: bool = False
    kernels: tuple = ("P",)

    def grid(self) -> Grid:
        return make_grid(self.x_min, self.x_max, self.n)


def _parse_potential_spec(spec) -> Potential:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"potential spec must be {{'named': ...}} or {{'poly': [...]}}, got {spec!r}")
    if "named" in spec:
        return named(spec["named"])
    if "poly" in spec:
        return polynomial(spec["poly"])
    raise ConfigError(f"unknown potential spec {spec!r}")


def _parse_tol_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        name, sep, value = str(pair).partition("=")
        if not sep:
            raise ConfigError(f"--tol expects name=value, got {pair!r}")
        try:
            val = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
        out[name] = _tolerance(name, val)
    return out


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


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    doc = _load_config_file(args.config) if args.config else {}
    grid_doc = doc.get("grid", {})
    suite_doc = doc.get("suite", {})
    sweep_doc = doc.get("sweep", {})

    # potential: flags win over the file; --poly and --potential are exclusive
    if args.poly is not None and args.potential is not None:
        raise ConfigError("give either --potential or --poly, not both")
    if args.poly is not None:
        pot = polynomial(_parse_number_list(args.poly, float))
    elif args.potential is not None:
        pot = named(args.potential)
    elif "potential" in doc:
        pot = _parse_potential_spec(doc["potential"])
    else:
        raise ConfigError("no potential given (use --potential, --poly, or a config file)")

    def pick(flag_value, file_value, label, caster):
        if flag_value is not None:
            return caster(flag_value)
        if file_value is not None:
            return caster(file_value)
        raise ConfigError(f"missing {label} (flag or config file)")

    x_min = pick(args.xmin, grid_doc.get("x_min"), "--xmin", float)
    x_max = pick(args.xmax, grid_doc.get("x_max"), "--xmax", float)
    sweep_n = None
    if getattr(args, "sweep_n", None) is not None and getattr(args, "sweep_h", None) is not None:
        raise ConfigError("give either --sweep-n or --sweep-h, not both")
    if getattr(args, "sweep_n", None) is not None:
        sweep_n = _parse_number_list(args.sweep_n, int)
    elif getattr(args, "sweep_h", None) is not None:
        sweep_n = [_n_for_spacing(x_min, x_max, h) for h in _parse_number_list(args.sweep_h, float)]
    elif "n_values" in sweep_doc:
        sweep_n = [int(k) for k in sweep_doc["n_values"]]
    elif "h_values" in sweep_doc:
        sweep_n = [_n_for_spacing(x_min, x_max, h) for h in sweep_doc["h_values"]]

    if args.n is not None:
        n = int(args.n)
    elif grid_doc.get("n") is not None:
        n = int(grid_doc["n"])
    elif sweep_n:
        n = max(sweep_n)
    else:
        raise ConfigError("missing --n (flag or config file)")

    branch_text = args.omega_branch or suite_doc.get("omega_branch") or "+"
    if branch_text not in ("+", "-"):
        raise ConfigError(f"--omega-branch must be '+' or '-', got {branch_text!r}")

    trunc_text = args.truncate if args.truncate is not None else suite_doc.get("truncate", "full")
    if isinstance(trunc_text, str) and trunc_text.lower() == "full":
        truncate = None
    else:
        try:
            truncate = int(trunc_text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"--truncate expects an integer or 'full', got {trunc_text!r}") from exc
        if truncate < 1:
            raise ConfigError(f"--truncate must be >= 1, got {truncate}")

    tolerances = {name: _tolerance(name, val) for name, val in suite_doc.get("tolerances", {}).items()}
    tolerances.update(_parse_tol_overrides(args.tol))

    jobs = int(args.jobs if args.jobs is not None else doc.get("jobs", 1))
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")

    kernels_text = getattr(args, "kernels", None) or ",".join(doc.get("kernels", ["P"]))
    kernels = tuple(tok.strip().upper() for tok in kernels_text.split(",") if tok.strip())
    for k in kernels:
        if k not in ("P", "Q"):
            raise ConfigError(f"--kernels entries must be P or Q, got {k!r}")

    out = Path(args.out if args.out is not None else doc.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")

    return ExperimentConfig(
        potential=pot,
        x_min=x_min,
        x_max=x_max,
        n=n,
        omega_branch=+1 if branch_text == "+" else -1,
        truncate=truncate,
        tolerances=tolerances,
        sweep_n=sweep_n,
        out=out,
        jobs=jobs,
        save_modes=bool(getattr(args, "save_modes", False) or doc.get("save_modes", False)),
        kernels=kernels,
    )


def _write_spectrum_csv(s: Spectrum, path: Path, save_modes: bool) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if save_modes:
            fh.write("n,E," + ",".join(f"phi_{i}" for i in range(s.grid.n)) + "\n")
            scale = np.sqrt(s.grid.h)  # phi_k = u_k / sqrt(h), one column at a time
            for k in range(s.n_modes):
                samples = ",".join(fmt_float(x) for x in s.modes[:, k] / scale)
                fh.write(f"{k},{fmt_float(s.energies[k])},{samples}\n")
        else:
            fh.write("n,E\n")
            for k in range(s.n_modes):
                fh.write(f"{k},{fmt_float(s.energies[k])}\n")


def cmd_solve(cfg: ExperimentConfig) -> int:
    grid = cfg.grid()
    spectrum = solve(assemble(cfg.potential, grid))
    path = cfg.out / "spectrum.csv"
    _write_spectrum_csv(spectrum, path, cfg.save_modes)
    print(f"# potential {cfg.potential.describe()} grid ({grid.x_min}, {grid.x_max}, n={grid.n})")
    for k in range(min(10, spectrum.n_modes)):
        print(f"E[{k}] = {spectrum.energies[k]:.12f}")
    print(f"spectrum written to {path}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    grid = cfg.grid()
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


def _sweep_point(cfg: ExperimentConfig, n: int):
    grid = make_grid(cfg.x_min, cfg.x_max, n)
    spectrum = solve(assemble(cfg.potential, grid))
    return grid, spectrum


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.sweep_n or len(cfg.sweep_n) < 3:
        raise ConfigError("sweep needs at least 3 grid sizes (--sweep-n or config)")
    ns = sorted(set(int(k) for k in cfg.sweep_n))
    if len(ns) < 3:
        raise ConfigError("sweep needs at least 3 distinct grid sizes")
    if cfg.truncate is not None and cfg.truncate > min(ns):
        raise ConfigError(
            f"--truncate {cfg.truncate} exceeds the smallest sweep size {min(ns)}"
        )
    levels = min(10, min(ns))

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        points = list(pool.map(lambda n: _sweep_point(cfg, n), ns))

    hs = np.array([g.h for g, _ in points])
    energies = np.array([s.energies[:levels] for _, s in points])
    # Reference: Richardson extrapolation from the finest 2:1 spacing pair,
    # which removes the leading h^2 term; otherwise fall back to the finest
    # grid's energies.
    ref = energies[-1]
    coarse = np.nonzero(np.abs(hs - 2.0 * hs[-1]) <= _RICHARDSON_RTOL * hs[-1])[0]
    richardson = coarse.size > 0
    if richardson:
        ref = (4.0 * energies[-1] - energies[coarse[0]]) / 3.0
    errors = np.abs(energies - ref)

    even_potential = False
    if points[0][0].symmetric:
        even_potential = is_even(cfg.potential, points[0][0])

    rows = []
    for i, (grid, spectrum) in enumerate(points):
        row = {"n": grid.n, "h": grid.h}
        for k in range(levels):
            row[f"E{k}"] = energies[i, k]
            row[f"err{k}"] = errors[i, k]
        for k in range(levels):
            if i > 0 and errors[i, k] > 0 and errors[i - 1, k] > 0:
                row[f"order{k}"] = float(np.log2(errors[i - 1, k] / errors[i, k]))
            else:
                row[f"order{k}"] = None
        if even_potential:
            row["reflection_residual"] = reflection_defect(build_parity(spectrum))
        else:
            row["reflection_residual"] = None
        if cfg.truncate is not None:
            trunc = build_parity(spectrum, truncate=cfg.truncate)
            if even_potential:
                resid = reflection_defect(trunc)
            else:
                resid = float(np.abs(trunc.action - build_parity(spectrum).action).max())
            row["trunc_m"] = cfg.truncate
            row["trunc_residual"] = resid
        else:
            row["trunc_m"] = None
            row["trunc_residual"] = None
        rows.append(row)

    header = ["n", "h"]
    header += [f"E{k}" for k in range(levels)]
    header += [f"err{k}" for k in range(levels)]
    header += [f"order{k}" for k in range(levels)]
    header += ["reflection_residual", "trunc_m", "trunc_residual"]
    path = cfg.out / "sweep.csv"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for col in header:
                val = row[col]
                if val is None:
                    cells.append("")
                elif isinstance(val, int):
                    cells.append(str(val))
                else:
                    cells.append(fmt_float(val))
            fh.write(",".join(cells) + "\n")

    print(f"# sweep over n = {ns} ({'Richardson' if richardson else 'finest-grid'} reference)")
    print(f"{'n':>6s} {'h':>12s} {'err_E0':>12s} {'order_E0':>9s} {'reflection':>12s}")
    for row in rows:
        order = f"{row['order0']:9.3f}" if row["order0"] is not None else "        -"
        refl = f"{row['reflection_residual']:12.3e}" if row["reflection_residual"] is not None else "         n/a"
        print(f"{row['n']:6d} {row['h']:12.6f} {row['err0']:12.3e} {order} {refl}")
    print(f"sweep table written to {path}")
    return EXIT_OK


def cmd_export_kernel(cfg: ExperimentConfig) -> int:
    grid = cfg.grid()
    spectrum = solve(assemble(cfg.potential, grid))
    for label in cfg.kernels:
        if label == "P":
            kern = build_parity(spectrum, truncate=cfg.truncate)
        else:
            kern = build_triparity(spectrum, cfg.omega_branch, truncate=cfg.truncate)
        csv_path = cfg.out / f"kernel_{label}.csv"
        txt_path = cfg.out / f"kernel_{label}.txt"
        write_kernel_csv(kern, csv_path)
        write_kernel_txt(kern, txt_path)
        print(f"kernel {label} written to {csv_path} and {txt_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--potential", choices=sorted(NAMED_POTENTIALS), help="named potential family")
    common.add_argument("--poly", help="comma-separated polynomial coefficients c0,c1,...")
    common.add_argument("--xmin", type=float, help="left domain edge")
    common.add_argument("--xmax", type=float, help="right domain edge")
    common.add_argument("--n", type=int, help="number of interior grid points")
    common.add_argument("--truncate", help="mode truncation M, or 'full'")
    common.add_argument("--omega-branch", choices=["+", "-"], help="triparity branch sign")
    common.add_argument("--tol", action="append", metavar="CHECK=VALUE", help="tolerance override (repeatable)")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--jobs", type=int, help="parallel sweep workers (default 1)")
    common.add_argument("--config", help="JSON config file; flags override its values")

    parser = argparse.ArgumentParser(
        prog="specparity",
        description="Solve 1D Schrodinger problems and verify spectral grading operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="solve the eigenproblem, write spectrum.csv")
    p_solve.add_argument("--save-modes", action="store_true", help="include eigenfunction samples in spectrum.csv")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="run the verification suite, write report.json")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", parents=[common], help="grid-refinement study, write sweep.csv")
    p_sweep.add_argument("--sweep-n", help="comma-separated interior point counts")
    p_sweep.add_argument("--sweep-h", help="comma-separated target spacings")
    p_sweep.set_defaults(func=cmd_sweep)

    p_export = sub.add_parser("export-kernel", parents=[common], help="dump operator kernels as CSV/text")
    p_export.add_argument("--kernels", help="comma-separated subset of P,Q (default P)")
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
