"""The four benchmark workloads and the per-operation correctness oracles.

Each workload is one fixed argument list for ``specparity.cli.main``; the
program receives nothing else. ``smoke_argv`` drives the same command path
at tiny n, for the benchmark's own smoke test and for the untimed warm-up
operation. The oracles here are independent of the program's own checks:
they read its output files and compare them with physics (harmonic
energies, second-order convergence) or with a recomputation through the
public library API.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

# The 15 checks report.json must carry, whatever the program's own table says.
CHECK_NAMES = (
    "completeness",
    "conservation_gaussian",
    "conservation_superposition",
    "hamiltonian_reconstruction",
    "node_count",
    "orthonormality",
    "parity_alternation",
    "parity_commutator",
    "parity_hermiticity",
    "parity_involution",
    "reflection_reduction",
    "triparity_alternation",
    "triparity_commutator",
    "triparity_cube",
    "triparity_nonhermiticity",
)

# Harmonic E_k checked against 2k+1 for k below this.
HARMONIC_LEVELS = 10
# Allowed |E_k - (2k+1)| as a multiple of the leading second-order
# discretisation error h^2 <p^4>/12 = h^2 (2k^2+2k+1)/16 of the central
# difference; the observed ratio is 1.00 at n=1999 and 1.02 at n=99.
HARMONIC_ERROR_FACTOR = 1.25
# Observed convergence order of E0 in sweep.csv must lie within 2 +- this.
ORDER_TOL = 0.1


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_report(argv, out: str, even: bool) -> list:
    with open(os.path.join(out, "report.json"), encoding="ascii") as fh:
        doc = json.load(fh)
    errors = []
    if doc.get("pass") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
        errors.append(f"report.json pass is not true (failed: {failed})")
    checks = {c["name"]: c for c in doc.get("checks", [])}
    if sorted(checks) != sorted(CHECK_NAMES):
        errors.append(f"report.json checks {sorted(checks)} differ from the 15 expected")
    refl = checks.get("reflection_reduction", {})
    if refl.get("applicable") is not even:
        errors.append(f"reflection_reduction applicable={refl.get('applicable')} for even={even}")
    return errors


def check_verify_asym(argv, out: str, facts: dict) -> list:
    return _check_report(argv, out, even=False)


def check_verify_even(argv, out: str, facts: dict) -> list:
    errors = _check_report(argv, out, even=True)
    heads = facts.get("energies_head", [])
    if len(heads) != 1:
        return errors + [f"expected one solved spectrum, captured {len(heads)}"]
    x_min, x_max, n = float(_flag(argv, "--xmin")), float(_flag(argv, "--xmax")), int(_flag(argv, "--n"))
    h = (x_max - x_min) / (n + 1)
    for k, e in enumerate(heads[0][:HARMONIC_LEVELS]):
        bound = HARMONIC_ERROR_FACTOR * h * h * (2 * k * k + 2 * k + 1) / 16.0
        if not abs(e - (2 * k + 1)) <= bound:
            errors.append(f"harmonic E_{k} = {e!r} is farther than {bound:.3e} from {2 * k + 1}")
    return errors


def check_sweep(argv, out: str, facts: dict) -> list:
    with open(os.path.join(out, "sweep.csv"), encoding="ascii", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = sorted(int(k) for k in _flag(argv, "--sweep-n").split(","))
    if [int(r["n"]) for r in rows] != expected:
        return [f"sweep.csv rows {[r['n'] for r in rows]} differ from {expected}"]
    orders = [float(r["order0"]) for r in rows[1:] if r["order0"]]
    if len(orders) != len(rows) - 1:
        return [f"sweep.csv has {len(orders)} order0 values for {len(rows) - 1} refinements"]
    return [f"observed order0 {o!r} is not within {ORDER_TOL} of 2" for o in orders if not abs(o - 2.0) <= ORDER_TOL]


class ExportCheck:
    """Kernel files must parse back to the library's action/h, exactly.

    17 significant digits round-trip, so the comparison is exact. A file
    whose bytes equal a file that already parsed back correctly in this
    process passes without being parsed again; the first operation of each
    run always parses every file.
    """

    def __init__(self):
        self._reference = {}
        self._verified = set()

    def reference(self, argv) -> dict:
        key = tuple(argv)
        if key not in self._reference:
            import specparity as sp

            grid = sp.make_grid(float(_flag(argv, "--xmin")), float(_flag(argv, "--xmax")), int(_flag(argv, "--n")))
            spectrum = sp.solve(sp.assemble(sp.named(_flag(argv, "--potential")), grid))
            self._reference[key] = {
                "points": grid.points,
                "P": sp.build_parity(spectrum).kernel,
                "Q": sp.build_triparity(spectrum).kernel,
            }
        return self._reference[key]

    def _parses_back(self, path: str, label: str, ref: dict, csv_file: bool) -> bool:
        import numpy as np

        dtype = float if label == "P" else complex
        if csv_file:
            header = np.loadtxt(path, delimiter=",", max_rows=1)
            table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=2)
            return np.array_equal(header, ref["points"]) and np.array_equal(table, ref[label])
        return np.array_equal(np.loadtxt(path, dtype=dtype, ndmin=2), ref[label])

    def __call__(self, argv, out: str, facts: dict) -> list:
        ref = self.reference(argv)
        errors = []
        for label in _flag(argv, "--kernels").split(","):
            for ext in ("csv", "txt"):
                path = os.path.join(out, f"kernel_{label}.{ext}")
                with open(path, "rb") as fh:
                    key = (tuple(argv), label, ext, hashlib.sha256(fh.read()).hexdigest())
                if key in self._verified:
                    continue
                if self._parses_back(path, label, ref, ext == "csv"):
                    self._verified.add(key)
                else:
                    errors.append(f"{path}: values differ from the library kernel {label}/h")
        return errors


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    smoke_argv: tuple
    single_blas_thread: bool
    check: object  # (argv, out_dir, facts) -> list of error strings
    captures_energies: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-asym-999",
            ("verify", "--potential", "quartic_cubic", "--xmin", "-10", "--xmax", "10", "--n", "999"),
            # node_count needs n >= 199 to resolve the first 50 modes of x^4+x^3
            ("verify", "--potential", "quartic_cubic", "--xmin", "-10", "--xmax", "10", "--n", "199"),
            False,
            check_verify_asym,
        ),
        Workload(
            "verify-even-1999",
            ("verify", "--potential", "harmonic", "--xmin", "-8", "--xmax", "8", "--n", "1999"),
            ("verify", "--potential", "harmonic", "--xmin", "-8", "--xmax", "8", "--n", "99"),
            False,
            check_verify_even,
            captures_energies=True,
        ),
        Workload(
            "sweep-even-jobs2",
            ("sweep", "--potential", "harmonic", "--xmin", "-8", "--xmax", "8", "--sweep-n", "199,399,799,1599", "--jobs", "2"),
            ("sweep", "--potential", "harmonic", "--xmin", "-8", "--xmax", "8", "--sweep-n", "99,199,399", "--jobs", "2"),
            True,
            check_sweep,
        ),
        Workload(
            "export-kernels-399",
            ("export-kernel", "--potential", "quartic_cubic", "--xmin", "-10", "--xmax", "10", "--n", "399", "--kernels", "P,Q"),
            ("export-kernel", "--potential", "quartic_cubic", "--xmin", "-10", "--xmax", "10", "--n", "49", "--kernels", "P,Q"),
            False,
            ExportCheck(),
        ),
    )
}
