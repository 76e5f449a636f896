"""Machine verification of the grading-operator properties.

Each check returns a non-negative residual; ``run_suite`` executes the full
pipeline (assemble, solve, build operators, all checks) and aggregates the
residuals into a report with per-check pass/fail verdicts.

Default tolerances separate two regimes: identities that are exact in exact
arithmetic on the discrete space (1e-10, hermiticity 1e-11) and the
reflection comparison between two independently computed objects (1e-6,
which inherits eigensolver conditioning).
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    GridMismatchError,
    SuiteStageError,
    TruncatedOperatorError,
    UnnormalizedStateError,
)
from .grids import Grid, require_same_grid
from .operators import (
    GradingWeights,
    OperatorKernel,
    _dyad_rows,
    _mode_block,
    build_parity,
    build_triparity,
)
from .potentials import Potential, is_even
from .schrodinger import (
    HamiltonianMatrix,
    Spectrum,
    _identity_defect,
    _max_abs,
    _row_blocks,
    assemble,
    check_completeness,
    check_orthonormality,
    count_nodes,
    solve,
)
from .serial import dumps

NORM_TOL = 1e-10
GAP_WARNING_ABS = 1e-8
NODE_AUDIT_MAX = 50

DEFAULT_TOLERANCES = {
    "completeness": 1e-10,
    "conservation_gaussian": 1e-10,
    "conservation_superposition": 1e-10,
    "hamiltonian_reconstruction": 1e-8,
    "node_count": 0.0,
    "orthonormality": 1e-10,
    "parity_alternation": 1e-10,
    "parity_commutator": 1e-10,
    "parity_hermiticity": 1e-11,
    "parity_involution": 1e-10,
    "reflection_reduction": 1e-6,
    "triparity_alternation": 1e-10,
    "triparity_commutator": 1e-10,
    "triparity_cube": 1e-10,
    "triparity_nonhermiticity": 1e-10,
}


def _tolerance(name: str, value) -> float:
    """``value`` as the tolerance of check ``name``: a positive, finite real."""
    if name not in DEFAULT_TOLERANCES:
        raise ConfigError(f"unknown check {name!r} (known: {', '.join(sorted(DEFAULT_TOLERANCES))})")
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"tolerance for {name!r} must be a positive, finite real, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float | None  # None when the check does not apply
    tolerance: float
    passed: bool
    seconds: float
    applicable: bool = True


@dataclass(frozen=True)
class VerificationReport:
    potential: dict
    grid: dict
    checks: tuple
    passed: bool
    warnings: tuple = ()
    timings: tuple = ()  # (stage name, seconds) pairs, in pipeline order

    def __post_init__(self):
        for c in self.checks:
            if c.residual is not None and not (c.residual >= 0 and np.isfinite(c.residual)):
                raise ValueError(f"check {c.name!r} has invalid residual {c.residual!r}")
        if self.passed != all(c.passed for c in self.checks):
            raise ValueError("overall pass must be the conjunction of per-check passes")

    def to_mapping(self, include_seconds: bool = True) -> dict:
        checks = []
        for c in self.checks:
            entry = {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            if include_seconds:
                entry["seconds"] = c.seconds
            entry["applicable"] = c.applicable
            checks.append(entry)
        doc = {
            "potential": self.potential,
            "grid": self.grid,
            "checks": checks,
            "pass": self.passed,
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        if include_seconds and self.timings:
            doc["timings"] = dict(self.timings)
        return doc

    def to_json(self, include_seconds: bool = True) -> str:
        """JSON document; ``seconds`` and ``timings`` are the only unstable parts."""
        return dumps(self.to_mapping(include_seconds))


def check_hermiticity(k: OperatorKernel) -> float:
    """Entrywise max of A - A^dagger, one row block at a time."""
    a = k.action
    return max(_max_abs(a[rows] - a[:, rows].conj().T) for rows in _row_blocks(k.n))


def spectral_hermiticity_gap(k: OperatorKernel) -> float:
    """Spectral norm of A - A^dagger (reported for non-Hermitian gradings).

    (A - A^dagger)/i = S - iK is Hermitian, with S = Im(A - A^dagger)
    symmetric and K = Re(A - A^dagger) antisymmetric. Its real embedding
    [[S, K], [-K, S]] is symmetric with the same eigenvalues, each doubled,
    so one Lanczos run for the largest-magnitude eigenvalue gives the exact
    norm of the full matrix without a dense complex eigensolve.

    S and K are never formed: with z = x + iy, the embedding maps (x, y)
    to (Im(A z) + Im(A^T conj z), Re(A^T conj z) - Re(A z)), two
    matrix-vector products with A itself.
    """
    # imported here, not at module top, so CLI start-up does not pay for it
    from scipy.sparse.linalg import LinearOperator, eigsh

    if check_hermiticity(k) == 0.0:
        return 0.0  # exactly Hermitian; Lanczos cannot start on a zero operator
    a = k.action
    n = k.n

    def embedded(v):
        v = np.ravel(v)
        x, y = v[:n], v[n:]
        if not np.iscomplexobj(a):  # S = 0 and K = A - A^T
            return np.concatenate([a @ y - y @ a, x @ a - a @ x])
        z = x + 1j * y
        az, atz = a @ z, z.conj() @ a
        return np.concatenate([az.imag + atz.imag, atz.real - az.real])

    op = LinearOperator((2 * n, 2 * n), matvec=embedded, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(2 * n)
    vals = eigsh(op, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    return float(np.abs(vals).max())


def check_commutator(k: OperatorKernel, hm: HamiltonianMatrix) -> float:
    """Relative commutator ||A T - T A||_max / ||T||_max.

    T is applied through its bands, one row block of the commutator at a
    time: rows b of A T are (T A[b]^T)^T since T is symmetric, and rows b
    of T A read A one row beyond each edge of b. T is real, so a complex A
    is taken one real part at a time, which keeps the temporaries real.
    """
    require_same_grid(k.grid, hm.grid)

    def commutator(part: np.ndarray, rows: slice) -> np.ndarray:
        out = hm.matvec(part[rows].T).T
        out -= hm.matvec(part, rows)
        return out

    def defect(rows: slice) -> float:
        if not np.iscomplexobj(a):
            return _max_abs(commutator(a, rows))
        squared = commutator(a.real, rows) ** 2  # |C|^2 = (Re C)^2 + (Im C)^2
        squared += commutator(a.imag, rows) ** 2
        return float(np.sqrt(squared.max()))

    a = k.action
    return max(defect(rows) for rows in _row_blocks(k.n)) / hm.norm_max


def _require_full(k: OperatorKernel, what: str) -> None:
    if k.truncated:
        raise TruncatedOperatorError(
            f"{what} is an identity only for full-basis operators; "
            f"this kernel is flagged truncated"
        )


def check_order(k: OperatorKernel, m: int) -> float:
    """||A^m - I||_max, the order-m identity of a full-basis grading operator.

    A complex A is streamed: rows b of A^m are formed as (A[b] A) ... A,
    so one row block of the product is live instead of A^(m-1) and A^m.
    A real A keeps the whole product: a real GEMM cut into row blocks may
    round differently from the whole one, and the real residuals stay
    bitwise those of the dense formula.
    """
    if m < 2:
        raise ValueError(f"order must be at least 2, got {m}")
    _require_full(k, f"A^{m} = I")
    a = k.action

    def power(rows: slice) -> np.ndarray:
        c = a[rows] @ a
        for _ in range(m - 2):
            c = c @ a
        return c

    if not np.iscomplexobj(a):
        return _identity_defect(power(slice(None)))
    return max(_identity_defect(power(rows), rows.start) for rows in _row_blocks(k.n))


def check_involution(k: OperatorKernel) -> float:
    """||A^2 - I||_max; the discrete form of the kernel self-composition."""
    return check_order(k, 2)


def check_cube(k: OperatorKernel) -> float:
    """||A^3 - I||_max."""
    return check_order(k, 3)


def check_alternation(k: OperatorKernel, s: Spectrum, w: GradingWeights | None = None) -> float:
    """max_n ||A u_n - w_n u_n||_2 for the expected eigenvalue sequence w.

    The residual R = A U - U diag(w) is formed one row block at a time and
    its squared column norms are summed over the blocks. U is real, so a
    complex A or w is taken one real part at a time, as real GEMMs:
    |R|^2 = (Re A U - U Re w)^2 + (Im A U - U Im w)^2. Row blocks of Re A
    and Im A are small strided copies; a column block of U would need the
    whole of Re A copied for every block.
    """
    require_same_grid(k.grid, s.grid)
    if w is None:
        w = GradingWeights.alternating(s.n_modes)
    if len(w) != s.n_modes:
        raise GridMismatchError(f"got {len(w)} weights for {s.n_modes} modes")
    a, u, wv = k.action, s.modes, w.values
    parts = [(a.real, wv.real)]
    if np.iscomplexobj(a) or np.iscomplexobj(wv):
        parts.append((a.imag if np.iscomplexobj(a) else None, wv.imag))
    squared = np.zeros(s.n_modes)
    for rows in _row_blocks(s.grid.n):
        for part, weights in parts:
            r = u[rows] * -weights
            if part is not None:
                r += part[rows] @ u
            r **= 2
            squared += r.sum(axis=0)
    return float(np.sqrt(squared).max())


def check_reflection_reduction(p: OperatorKernel, v: Potential, grid: Grid):
    """||A_P - J||_max when V is even on a symmetric grid, else None.

    None is the not-applicable marker: for potentials without spatial
    reflection symmetry the parity operator legitimately differs from J.
    """
    require_same_grid(p.grid, grid)
    if not grid.symmetric or not is_even(v, grid):
        return None
    return reflection_defect(p)


def reflection_defect(k: OperatorKernel) -> float:
    """||A - J||_max, with J the anti-identity that reflects a symmetric grid.

    A - J is A[::-1] - I with its rows flipped, so J is never built; the
    rows of A[::-1] are compared one block at a time.
    """
    flipped = k.action[::-1]
    return max(_identity_defect(flipped[rows].copy(), rows.start) for rows in _row_blocks(k.n))


def check_conservation(p: OperatorKernel, s: Spectrum, psi0, times) -> float:
    """Max drift of <psi(t)| A |psi(t)> under spectral time evolution.

    Evolution is exact in the discrete space (phase factors on the
    eigenbasis), so any drift is an operator property, not integrator error.
    """
    require_same_grid(p.grid, s.grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (s.grid.n,):
        raise GridMismatchError(f"state has shape {psi0.shape}, expected ({s.grid.n},)")
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > NORM_TOL:
        raise UnnormalizedStateError(f"state norm {norm!r} differs from 1")
    # One (n, len(times)) block holds every psi(t). U is real, so each
    # product with it runs as two real GEMMs instead of a complex one, and
    # psi is kept as its real and imaginary parts.
    u = s.modes
    coeff = u.T @ psi0.real + 1j * (u.T @ psi0.imag)
    phased = np.multiply.outer(s.energies, np.asarray(times, dtype=float)) * -1j
    np.exp(phased, out=phased)
    phased *= coeff[:, np.newaxis]
    re, im = u @ phased.real, u @ phased.imag
    del phased
    a = p.action
    if np.iscomplexobj(a):
        psi = re + 1j * im
        values = np.einsum("ij,ij->j", psi.conj(), a @ psi)
    else:
        a_re, a_im = a @ re, a @ im
        # <psi|A psi> = re.A re + im.A im + i (re.A im - im.A re) for real A
        values = np.einsum("ij,ij->j", re, a_re) + np.einsum("ij,ij->j", im, a_im)
        values = values + 1j * (np.einsum("ij,ij->j", re, a_im) - np.einsum("ij,ij->j", im, a_re))
    return float(np.abs(values - values[0]).max())


def _reconstruction_defect(s: Spectrum, hm: HamiltonianMatrix) -> float:
    """||U diag(E) U^T - T||_max / ||T||_max from rows b of the dyad sum at a time, T by bands."""
    u = _mode_block(s, None)
    blocks = (hm.subtract_from(_dyad_rows(u, s.energies, b), b.start) for b in _row_blocks(hm.n))
    return max(map(_max_abs, blocks)) / hm.norm_max


def _gaussian_state(grid: Grid, center: float = 1.0, width: float = 1.0) -> np.ndarray:
    g = np.exp(-((grid.points - center) ** 2) / (2.0 * width * width))
    return g / np.linalg.norm(g)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise SuiteStageError(name, exc) from exc


def run_suite(
    v: Potential,
    grid: Grid,
    tolerances: dict | None = None,
    *,
    omega_branch: int = +1,
    spectrum: Spectrum | None = None,
    conservation_times=None,
) -> VerificationReport:
    """Run the whole verification pipeline and aggregate a report.

    ``spectrum`` may be supplied to bypass the solve stage, which is how
    negative controls (deliberately corrupted bases) are driven through the
    same checks; the report's stage timings then have no ``solve`` entry.
    One grading operator is alive at a time: each is built, checked and
    dropped before the next. Check order in the report is alphabetical by name.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update((name, _tolerance(name, value)) for name, value in (tolerances or {}).items())
    if conservation_times is None:
        conservation_times = np.linspace(0.0, 10.0, 101)
    timings, results = [], []

    def timed_stage(name, fn, *args):
        t0 = time.perf_counter()
        out = _stage(name, fn, *args)
        timings.append((name, time.perf_counter() - t0))
        return out

    def check(name, fn, *args):
        t0 = time.perf_counter()
        residual = _stage(name, fn, *args)
        elapsed = time.perf_counter() - t0
        applicable = residual is not None  # None marks a check that does not apply
        residual = float(residual) if applicable else None
        passed = not applicable or residual <= tol[name]
        results.append(CheckResult(name, residual, tol[name], passed, elapsed, applicable))

    hm = timed_stage("assemble", assemble, v, grid)
    s = spectrum if spectrum is not None else timed_stage("solve", solve, hm)
    times = conservation_times
    psi_super = (s.modes[:, 0] + s.modes[:, 1]) / np.sqrt(2.0)
    # name, builder, its arguments after the spectrum (also the weights' after
    # the mode count), weights, order identity and m, Hermiticity target (None:
    # Hermitian), checks only this grading takes. Built per call, so it holds
    # the current module bindings, which bench/spans.py rebinds to time calls.
    gradings = (
        ("parity", build_parity, (), GradingWeights.alternating, "involution", 2, None, (
            ("reflection_reduction", lambda p: check_reflection_reduction(p, v, grid)),
            ("conservation_superposition", lambda p: check_conservation(p, s, psi_super, times)),
            ("conservation_gaussian", lambda p: check_conservation(p, s, _gaussian_state(grid), times)),
        )),
        ("triparity", build_triparity, (omega_branch,), GradingWeights.cube_roots, "cube", 3, np.sqrt(3.0), ()),
    )
    for name, build, args, weights, order, m, target, extra in gradings:
        op = timed_stage(f"build_{name}", build, s, *args)
        if target is None:
            check(f"{name}_hermiticity", check_hermiticity, op)
        else:
            check(f"{name}_nonhermiticity", lambda: abs(spectral_hermiticity_gap(op) - target))
        check(f"{name}_commutator", check_commutator, op, hm)
        check(f"{name}_{order}", check_order, op, m)
        check(f"{name}_alternation", lambda: check_alternation(op, s, weights(s.n_modes, *args)))
        for extra_name, fn in extra:
            check(extra_name, fn, op)
        del op  # dropped before the next grading is built

    def node_audit() -> float:
        top = min(NODE_AUDIT_MAX, s.n_modes - 1)
        return float(max(abs(count_nodes(s, k) - k) for k in range(top + 1)))

    check("orthonormality", check_orthonormality, s, s.n_modes)
    check("completeness", check_completeness, s)
    check("hamiltonian_reconstruction", _reconstruction_defect, s, hm)
    check("node_count", node_audit)
    results.sort(key=lambda c: c.name)

    warnings = []
    min_gap = float(np.diff(s.energies).min()) if s.n_modes > 1 else np.inf
    if min_gap < GAP_WARNING_ABS and any(
        c.name == "reflection_reduction" and c.applicable for c in results
    ):
        warnings.append(
            f"reflection_reduction: minimum eigenvalue gap {min_gap:.3e} is below "
            f"{GAP_WARNING_ABS:g}; parity assignment in degenerate pairs relies on "
            f"the exact reflection symmetry of the discrete Hamiltonian"
        )

    return VerificationReport(
        potential=v.describe(),
        grid=grid.describe(),
        checks=tuple(results),
        passed=all(c.passed for c in results),
        warnings=tuple(warnings),
        timings=tuple(timings),
    )


def corrupt_spectrum(s: Spectrum, mode: int, eps: float = 1e-3, seed: int = 0) -> Spectrum:
    """Return a copy with Gaussian noise of size eps added to one mode.

    The corrupted mode is renormalized but no longer orthogonal to its
    neighbors, so operator identities built from the result must fail; this
    is the negative control for the verification suite.
    """
    if not (0 <= mode < s.n_modes):
        raise IndexError(f"mode index {mode} out of range 0..{s.n_modes - 1}")
    rng = np.random.default_rng(seed)
    modes = s.modes.copy()
    noisy = modes[:, mode] + eps * rng.standard_normal(s.grid.n)
    modes[:, mode] = noisy / np.linalg.norm(noisy)
    return replace(s, modes=modes)
