"""Machine verification of the grading-operator properties.

Each check returns a non-negative residual; ``run_suite`` executes the full
pipeline (assemble, solve, build operators, all checks) and aggregates the
residuals into a report with per-check pass/fail verdicts.

Default tolerances separate two regimes: identities that are exact in exact
arithmetic on the discrete space (1e-10, hermiticity 1e-11) and the
reflection reduction ||A_P - J|| (1e-6). When ``solve`` folds a
reflection-symmetric Hamiltonian, every mode is an exact mirror,
J u_k = (-1)^k u_k, so A_P - J = J (U U^T - I): the reflection reduction then
measures completeness, not the agreement of two independently computed
objects. It keeps its name and its looser tolerance.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    EigensolverError,
    GridMismatchError,
    SuiteStageError,
    TruncatedOperatorError,
    UnnormalizedStateError,
)
from .grids import Grid, require_same_grid
from .operators import GradingWeights, OperatorKernel, gradings
from .potentials import Potential, is_even
from .schrodinger import (
    HamiltonianMatrix,
    Spectrum,
    _dyad_defect,
    _fold_sizes,
    _identity_defect,
    _max_abs,
    _row_blocks,
    _rows_equal,
    _sectors,
    _top_weights,
    assemble,
    check_completeness,
    check_orthonormality,
    count_nodes,
    solve,
)
from .serial import dumps

NORM_TOL = 1e-10
NODE_AUDIT_MAX = 50
ORDER_NAMES = {2: "involution", 3: "cube"}  # the name of each grading's A^m = I check

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
    seconds: float

    @property
    def applicable(self) -> bool:
        return self.residual is not None

    @property
    def passed(self) -> bool:
        return not self.applicable or self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    potential: dict
    grid: dict
    checks: tuple
    warnings: tuple = ()  # each starts "<name>:" and explains a check that failed
    timings: tuple = ()  # (stage name, seconds) pairs, in pipeline order

    def __post_init__(self):
        for c in self.checks:
            if c.residual is not None and not (c.residual >= 0 and np.isfinite(c.residual)):
                raise ValueError(f"check {c.name!r} has invalid residual {c.residual!r}")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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


def _hermitian(a: np.ndarray) -> bool:
    """Whether A == A^dagger exactly, scanned one row block at a time.

    Stops at the first row block with an unequal entry; the same verdict as
    ``check_hermiticity(k) == 0.0``, which reads every block.
    """
    return _rows_equal(a.shape[0], lambda r: a[r], lambda r: a[:, r].T.conj())


def _centrosymmetric(a: np.ndarray) -> bool:
    """Whether A[::-1, ::-1] == A exactly, that is, A commutes with the reflection J.

    Each top row (``_fold_sizes``) is compared with its mirror reversed, one
    row block at a time, up to the first unequal block. Derived on each
    call: a complex grading of a folded spectrum passes by construction; a
    real one is one whole GEMM, which may round mirrored entries apart.
    """
    n = a.shape[0]
    return _rows_equal(_fold_sizes(n)[1], lambda r: a[n - r.stop : n - r.start][::-1, ::-1], lambda r: a[r])


_LANCZOS_STEPS = 1000  # Lanczos steps before a run counts as unconverged
_LANCZOS_CHECK = 2  # Lanczos steps from one convergence test to the next


def _lanczos_norm(embedded, n: int) -> float:
    """Largest |eigenvalue| of the real symmetric 2n x 2n operator ``embedded``, by Lanczos.

    The run starts from ``default_rng(0).standard_normal(2n)`` and holds three
    vectors, v_k, v_k-1 and w: each step takes w = A v_k - beta_k-1 v_k-1,
    alpha_k = v_k . w, w -= alpha_k v_k, beta_k = |w| and v_k+1 = w / beta_k.
    Every ``_LANCZOS_CHECK`` steps the extreme eigenpairs (theta_i, s_i) of
    the k x k tridiagonal T_k come from ``scipy.linalg.eigh_tridiagonal``,
    and the run stops when both have satisfied beta_k |s_i[k-1]| <= eps
    max|theta|, ARPACK's test at tol=0 (Lehoucq, Sorensen & Yang, ARPACK
    Users' Guide, SIAM 1998, 4.6), or when the Krylov space is invariant
    (beta_k = 0). A pair that has met the test counts as converged from then
    on: T_k is a leading block of T_k+1, so the extreme Ritz values only move
    outwards, and each stays at least as close to its end of the spectrum as
    when it passed.

    The vectors are not reorthogonalized. In floating point they lose
    orthogonality only along Ritz vectors that have converged, which adds
    copies of those Ritz values to T_k and no wrong ones (Paige, Linear
    Algebra Appl. 34 (1980) 235-258), so the two extreme values are sound. A
    run that has not converged in ``_LANCZOS_STEPS`` steps raises
    ``EigensolverError``.
    """
    # imported here, not at module top, so CLI start-up does not pay for it
    from scipy.linalg import eigh_tridiagonal

    v = np.random.default_rng(0).standard_normal(2 * n)
    v /= np.linalg.norm(v)
    v_prev, b = np.zeros_like(v), 0.0
    alpha, beta = [], []  # T_k's diagonal, and beta_1..beta_k, the last one coupling to w
    converged = np.zeros(2, bool)  # which of the two extreme Ritz pairs have met the test
    for k in range(1, _LANCZOS_STEPS + 1):
        w = np.array(embedded(v), dtype=float)
        w -= b * v_prev
        alpha.append(float(v @ w))
        w -= alpha[-1] * v
        b = float(np.linalg.norm(w))
        if not math.isfinite(b):
            raise EigensolverError(f"Lanczos met a non-finite vector after {k} steps")
        beta.append(b)
        if k % _LANCZOS_CHECK == 0 or not b:
            theta, s = eigh_tridiagonal(alpha, beta[:-1])
            scale = float(np.abs(theta[[0, -1]]).max())
            converged |= b * np.abs(s[-1, [0, -1]]) <= np.finfo(float).eps * scale
            if converged.all() or not b:
                return scale
        v_prev, v = v, w / b
    raise EigensolverError(f"Lanczos did not converge in {_LANCZOS_STEPS} steps")


def _lanczos_gap(a: np.ndarray) -> float:
    """Spectral norm of A - A^dagger for a square A, by one Lanczos run.

    (A - A^dagger)/i = S - iK is Hermitian, with S = Im(A - A^dagger)
    symmetric and K = Re(A - A^dagger) antisymmetric. Its real embedding
    [[S, K], [-K, S]] is symmetric with the same eigenvalues, each doubled,
    so one Lanczos run for the largest-magnitude eigenvalue gives the exact
    norm without a dense complex eigensolve.

    S and K are never formed: with z = x + iy, the embedding maps (x, y)
    to (Im(A z) + Im(A^T conj z), Re(A^T conj z) - Re(A z)), two
    matrix-vector products with A itself.

    Each product of A rounds by up to about eps sqrt(2n) times its own norm,
    so where A is Hermitian to that level the embedding is rounding noise, no
    linear map, and Lanczos on it does not converge. A difference no larger
    than the rounding of the products it is taken from is therefore read as
    zero: an A that is Hermitian to rounding gives 0.0 after one step.

    An exactly Hermitian A gives 0.0 without Lanczos. Its products round
    apart too (a @ y - y @ a reads about 1e-14 for a symmetric 300 x 300 A
    of norm 49), and the guard does not rely on that bound. It stops at the
    first row block where A != A^dagger, so a matrix far from Hermitian pays
    for one block.
    """
    if _hermitian(a):
        return 0.0
    n = a.shape[0]

    def embedded(v):
        v = np.ravel(v)
        x, y = v[:n], v[n:]
        if not np.iscomplexobj(a):  # S = 0 and K = A - A^T
            ay, ya, xa, ax = terms = a @ y, y @ a, x @ a, a @ x
            mv = np.concatenate([ay - ya, xa - ax])
        else:
            z = x + 1j * y
            terms = az, atz = a @ z, z.conj() @ a
            mv = np.concatenate([az.imag + atz.imag, atz.real - az.real])
        noise = np.finfo(float).eps * math.sqrt(2 * n) * sum(np.linalg.norm(t) for t in terms)
        return mv if np.linalg.norm(mv) > noise else np.zeros_like(mv)

    return _lanczos_norm(embedded, n)


_PACK_ROWS = 32  # rows of a fold block formed at a time while its panels are written


def _fold_columns(block: np.ndarray, cols: slice, even: bool, middle: float, out=None) -> np.ndarray:
    """Columns ``cols`` of the even or odd column fold of ``block``, rows of an n-column A,
    written into ``out`` or a new array: column j < m (``_fold_sizes``) is A[:, j] +- A[:, n-1-j],
    and column m of an odd n's even fold is ``middle`` * A[:, m]."""
    n = block.shape[1]
    m, _ = _fold_sizes(n)
    j0, j1 = cols.start, cols.stop
    left = min(j1, m)  # the columns before the middle
    if out is None:
        out = np.empty((block.shape[0], j1 - j0), block.dtype)
    if left > j0:
        fold = np.add if even else np.subtract
        fold(block[:, j0:left], block[:, n - left : n - j0][:, ::-1], out=out[:, : left - j0])
    if j1 > m:
        np.multiply(block[:, m], middle, out=out[:, m - j0])
    return out


def _fold(a: np.ndarray, rows: slice, cols: slice, even: bool) -> np.ndarray:
    """Entries [rows, cols] of the even (B_e) or odd (B_o) block of F^T A F (``fold_bands``).

    For i, j < m, B[i, j] = A[i, j] +- A[n-1-i, j], read as its bitwise equal
    A[i, n-1-j] only because A has passed ``_centrosymmetric``: B's top rows
    are the column fold of A's (``_fold_columns``), the middle column scaled
    by sqrt(2). For an odd n, B_e[m, j] = sqrt(2) A[m, j], B_e[m, m] = A[m, m].
    """
    m, _ = _fold_sizes(a.shape[0])
    i0, i1, j0, j1 = rows.start, rows.stop, cols.start, cols.stop
    top, left = min(i1, m), min(j1, m)  # the rows and columns before the middle
    b = np.empty((i1 - i0, j1 - j0), a.dtype)
    _fold_columns(a[i0:top], cols, even, math.sqrt(2.0), out=b[: top - i0])
    if i1 > m:
        np.multiply(a[m, j0:left], math.sqrt(2.0), out=b[m - i0, : left - j0])
        if j1 > m:
            b[m - i0, m - j0] = a[m, m]
    return b


def _difference_panels(a: np.ndarray, size: int, even: bool) -> list:
    """H = (B - B^dagger)/i of one fold block (``_fold``), its lower triangle in panels.

    For each row block p of 0..size-1 (``_row_blocks``) the panel holds
    H[p.start:, p], the columns p from their diagonal block down, stored
    transposed: P[t, u] = H[p.start + u, p.start + t]. The panels lie one
    after the other in one buffer, about 0.56 size^2 entries. H[k, j] =
    (B[k, j] - conj(B[j, k]))/i is written from those two entries alone, so
    an exactly Hermitian block gives exact zeros, ``_PACK_ROWS`` rows of B
    and columns of B at a time.
    """
    blocks = list(_row_blocks(size))
    buf = np.empty(sum((p.stop - p.start) * (size - p.start) for p in blocks), complex)
    panels, start = [], 0
    for p in blocks:
        panel = buf[start : start + (p.stop - p.start) * (size - p.start)].reshape(p.stop - p.start, -1)
        for j0 in range(p.start, p.stop, _PACK_ROWS):
            j1 = min(j0 + _PACK_ROWS, p.stop)
            row = _fold(a, slice(j0, j1), slice(p.start, size), even)  # B[j, k]
            col = _fold(a, slice(p.start, size), slice(j0, j1), even).T  # B[k, j]
            part = panel[j0 - p.start : j1 - p.start]
            np.add(col.imag, row.imag, out=part.real)
            np.subtract(row.real, col.real, out=part.imag)
        panels.append((p, panel))
        start += panel.size
    return panels


def _panels_norm(panels: list, n: int) -> float:
    """Spectral norm of the n x n Hermitian H held in ``_difference_panels`` panels.

    H = R + iM acts on z = x + iy through two matrix-vector products per
    panel P of columns p: rows p of H z take conj(P conj(z[p.start:])), and
    the rows below them take z[p] P[:, len(p):]. Its real embedding
    [[R, -M], [M, R]] maps (x, y) to (Re H z, Im H z), and one Lanczos run
    gives its largest eigenvalue in magnitude. An all-zero H gives 0.0
    without Lanczos. README's "Numerical notes" say why not scipy's ``zhpmv``.
    """
    if not any(panel.any() for _, panel in panels):
        return 0.0

    def embedded(v):
        v = np.ravel(v)
        z = v[:n] + 1j * v[n:]
        conj = z.conj()
        hz = np.zeros(n, complex)
        for p, panel in panels:
            hz[p] += np.conj(panel @ conj[p.start :])
            hz[p.stop :] += z[p] @ panel[:, p.stop - p.start :]
        return np.concatenate([hz.real, hz.imag])

    return _lanczos_norm(embedded, n)


def spectral_hermiticity_gap(k: OperatorKernel) -> float:
    """Spectral norm of A - A^dagger (reported for non-Hermitian gradings).

    The norm comes from ``_lanczos_gap`` on A itself, or, when A is its own
    mirror image (``_centrosymmetric``, checked entry by entry), from two
    half-size blocks: the fold F of ``fold_bands`` is real and orthogonal,
    and F^T A F = diag(B_e, B_o) (``_fold``), so the norm is the larger
    block norm. Each block's (B - B^dagger)/i is held as its lower triangle
    in panels (``_difference_panels``), one block after the other, for one
    Lanczos run (``_panels_norm``). An exactly Hermitian block gives 0.0,
    and every block of an exactly Hermitian centrosymmetric A is one:
    conj(B_e[j, i]) = A[i, j] + A[n-1-i, j] = B_e[i, j], and likewise for
    B_o and the sqrt(2)-scaled middle entries.
    """
    a = k.action
    if not _centrosymmetric(a):
        return _lanczos_gap(a)
    m, h = _fold_sizes(k.n)
    return max(_panels_norm(_difference_panels(a, size, even), size) for size, even in ((h, True), (m, False)))


def check_commutator(k: OperatorKernel, hm: HamiltonianMatrix) -> float:
    """Relative commutator ||A T - T A||_max / ||T||_max.

    T is applied through its bands, one row block of the commutator at a
    time: rows b of A T are (T A[b]^T)^T since T is symmetric, and rows b
    of T A read A one row beyond each edge of b. T is real, so a complex A
    is taken one real part at a time, which keeps the temporaries real.
    Each part is scaled by a power of two near 1/||T||_max before it is
    squared (Blue, ACM TOMS 4 (1978) 15-23): exact, and no square overflows.

    When T's bands are palindromic (``hm.palindromic``) and A is its own
    mirror image (``_centrosymmetric``), both commute with the reflection J,
    so C = A T - T A does too, and only its top rows (``_fold_sizes``) are
    formed. Both properties are checked exactly; otherwise every row is.
    """
    require_same_grid(k.grid, hm.grid)
    a, n = k.action, k.n
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    unit = 2.0 ** -math.frexp(hm.norm_max)[1]

    def squared(part: np.ndarray, rows: slice) -> np.ndarray:
        c = hm.matvec(part[rows].T).T
        c -= hm.matvec(part, rows)
        c *= unit
        return np.square(c, out=c)

    def peak(rows: slice) -> float:
        total = squared(parts[0], rows)
        for part in parts[1:]:
            total += squared(part, rows)
        return float(total.max())

    top = _fold_sizes(n)[1] if hm.palindromic and _centrosymmetric(a) else n
    return math.sqrt(max(peak(rows) for rows in _row_blocks(top))) / unit / hm.norm_max


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
    The blocks hold ceil(n/8) rows, or ceil(h/8) (``_fold_sizes``) for a
    centrosymmetric A, as its other checks do, which halves the live
    products. The complex GEMMs of the harmonic triparity give each row the
    same bits under either height (tested at n = 199, 200, 399 and 400). A
    real A keeps the whole product: a real GEMM cut into row blocks may
    round differently from the whole one, and the real residuals stay
    bitwise those of the dense formula. Every row of the power is formed,
    also for a centrosymmetric A: its residual is pinned equal (==) to the
    dense formula over all rows, and a top-rows maximum can miss the
    largest bottom-row rounding.
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
    span = _fold_sizes(k.n)[1] if _centrosymmetric(a) else k.n
    return max(_identity_defect(power(rows), rows.start) for rows in _row_blocks(k.n, span))


def check_involution(k: OperatorKernel) -> float:
    """||A^2 - I||_max; the discrete form of the kernel self-composition."""
    return check_order(k, 2)


def check_cube(k: OperatorKernel) -> float:
    """||A^3 - I||_max."""
    return check_order(k, 3)


def check_alternation(k: OperatorKernel, s: Spectrum, w: GradingWeights | None = None) -> float:
    """max_n ||A u_n - w_n u_n||_2 for the expected eigenvalue sequence w.

    For an operator built from the same spectrum, A = U W U^T, this is an
    identity of the construction given orthonormality:
    A U - U W = U W (U^T U - I). So for such an A it measures how far
    U^T U is from I, weighted by U W.

    The residual R = A U - U diag(w) is formed one row block at a time and
    its squared column norms are summed over the blocks. U is real, so a
    complex A or w is taken one real part at a time, as real GEMMs:
    |R|^2 = (Re A U - U Re w)^2 + (Im A U - U Im w)^2. Row blocks of Re A
    and Im A are small strided copies; a column block of U would need the
    whole of Re A copied for every block.

    A folded spectrum's modes are exact mirrors, so A U is formed from its
    two parity sectors (``_sectors``), one after the other: each row block
    of A is folded by columns (``_fold_columns``), even against the even
    sector and odd, without the zero middle row, against the odd one. That
    reads every entry of A, assumes nothing about it, and halves the flops.
    When A is also its own mirror image (``_centrosymmetric``), R[n-1-i] =
    (-1)^k R[i], so only the top rows are formed, weighted by ``_top_weights``.
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
    n = s.grid.n
    m, h = _fold_sizes(n)
    folds = ((slice(0, None, 2), True, h), (slice(1, None, 2), False, m)) if s.folded else ((slice(None), None, n),)
    top = h if s.folded and _centrosymmetric(a) else n
    weights = _top_weights(n)[:, np.newaxis] if top < n else None
    squared = np.zeros(s.n_modes)
    # the columns of R in one sector depend on that sector alone, so each is taken in turn
    for (cols, even, width), sector in zip(folds, _sectors(s, u)):
        for rows in _row_blocks(top):
            for part, w_part in parts:
                r = u[rows, cols] * -w_part[cols]
                if part is not None:
                    lhs = part[rows] if even is None else _fold_columns(part[rows], slice(0, width), even, 1.0)
                    r += lhs @ sector[:width]
                r **= 2
                if weights is not None:
                    r *= weights[rows]
                squared[cols] += r.sum(axis=0)
    return float(np.sqrt(squared).max())


def reflection_applies(v: Potential, grid: Grid) -> bool:
    """Whether ||A_P - J|| is a check: V is even on a symmetric grid.

    For potentials without spatial reflection symmetry the parity operator
    legitimately differs from J, so a caller can skip building it.
    """
    return grid.symmetric and is_even(v, grid)


def check_reflection_reduction(p: OperatorKernel, v: Potential, grid: Grid):
    """||A_P - J||_max where ``reflection_applies``, else None, the not-applicable marker."""
    require_same_grid(p.grid, grid)
    return reflection_defect(p) if reflection_applies(v, grid) else None


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
    a_re, a_im = p.action @ re, p.action @ im
    # <psi|A psi> = re.A re + im.A im + i (re.A im - im.A re), real or complex A:
    # re and im are real, so conjugating psi only flips the sign of im
    values = np.einsum("ij,ij->j", re, a_re) + np.einsum("ij,ij->j", im, a_im)
    values = values + 1j * (np.einsum("ij,ij->j", re, a_im) - np.einsum("ij,ij->j", im, a_re))
    return float(np.abs(values - values[0]).max())


def _reconstruction_defect(s: Spectrum, hm: HamiltonianMatrix) -> float:
    """||U diag(E) U^T - T||_max / ||T||_max from row blocks of the dyad sum, T by bands."""
    return _dyad_defect(s, s.energies, hm) / hm.norm_max


def _gaussian_state(grid: Grid) -> np.ndarray:
    """A unit-width Gaussian at x = 1, moved to the nearest end of the grid when
    outside it.

    On a grid whose points all lie more than about 38.6 from that centre
    (a spacing above about 77), the Gaussian underflows to a zero vector;
    there, and only there, it is centred on the grid point nearest x = 1,
    where it is 1. A distance whose square overflows gives exp(-inf) = 0,
    the value it underflows to anyway.
    """
    points = grid.points
    center = min(max(1.0, points[0]), points[-1])
    with np.errstate(over="ignore"):
        g = np.exp(-((points - center) ** 2) / 2.0)
        if not g.any():
            center = points[np.abs(points - 1.0).argmin()]
            g = np.exp(-((points - center) ** 2) / 2.0)
    return g / np.linalg.norm(g)


def _node_warning(s: Spectrum, failing: list, audited: int) -> str:
    """Which audited modes have the wrong node count, and whether the first is a lattice state.

    4/h^2 bounds the spectrum of the discrete kinetic term; a mode at or above
    it oscillates on the scale of the grid, so its nodes are not the
    continuum's.
    """
    k = failing[0]
    energy, limit = s.energies[k], 4.0 / (s.grid.h * s.grid.h)
    lattice = energy >= limit
    return (
        f"node_count: {len(failing)} of the {audited} audited modes have the wrong number of "
        f"nodes, the first k={k}, whose E_k = {energy:.6g} is {'at or above' if lattice else 'below'} "
        f"4/h^2 = {limit:.6g}{' (a lattice state)' if lattice else ''}; "
        f"use a finer grid or a narrower domain"
    )


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
) -> VerificationReport:
    """Run the whole verification pipeline and aggregate a report.

    ``spectrum`` may be supplied to bypass the solve stage, which is how
    negative controls (deliberately corrupted bases) are driven through the
    same checks; the report's stage timings then have no ``solve`` entry.
    The rows of ``gradings(omega_branch)`` are built, checked and dropped one
    at a time, each complex (non-Hermitian) row before the real ones. The
    complex grading is the largest array of the suite (16n^2 bytes); built
    first, it is allocated before the whole real product of a real row's
    order check has grown the allocator's heap, which then keeps that
    product resident on top of the complex one. Each check's arithmetic is
    the same in either order. Check order in the report is alphabetical by
    name.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update((name, _tolerance(name, value)) for name, value in (tolerances or {}).items())
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
        residual = None if residual is None else float(residual)  # None: the check does not apply
        if residual is not None and not math.isfinite(residual):
            raise SuiteStageError(name, ArithmeticError(f"residual is {residual}, not a finite number"))
        results.append(CheckResult(name, residual, tol[name], elapsed))

    hm = timed_stage("assemble", assemble, v, grid)
    s = spectrum if spectrum is not None else timed_stage("solve", solve, hm)
    times = np.linspace(0.0, 10.0, 101)  # the conservation checks' grid of t
    pair = s.modes[:, 0] + s.modes[:, 1]
    psi_super = pair / np.linalg.norm(pair)  # of unit norm also where u_0 and u_1 are not orthogonal
    for g in sorted(gradings(omega_branch).values(), key=lambda g: g.target is None):  # complex first
        op = timed_stage(f"build_{g.name}", g.build, s)
        if g.target is None:
            check(f"{g.name}_hermiticity", check_hermiticity, op)
        else:
            check(f"{g.name}_nonhermiticity", lambda: abs(spectral_hermiticity_gap(op) - g.target))
        check(f"{g.name}_commutator", check_commutator, op, hm)
        check(f"{g.name}_{ORDER_NAMES[g.order]}", check_order, op, g.order)
        check(f"{g.name}_alternation", lambda: check_alternation(op, s, g.weights(s.n_modes)))
        if g.name == "parity":  # the checks only the parity takes
            check("reflection_reduction", check_reflection_reduction, op, v, grid)
            check("conservation_superposition", check_conservation, op, s, psi_super, times)
            check("conservation_gaussian", lambda: check_conservation(op, s, _gaussian_state(grid), times))
        del op  # dropped before the next grading is built

    node_defects = []  # |count_nodes(s, k) - k| for each audited k

    def node_audit() -> float:
        top = min(NODE_AUDIT_MAX, s.n_modes - 1)
        node_defects.extend(abs(count_nodes(s, k) - k) for k in range(top + 1))
        return float(max(node_defects))

    check("orthonormality", check_orthonormality, s, s.n_modes)
    check("completeness", check_completeness, s)
    check("hamiltonian_reconstruction", _reconstruction_defect, s, hm)
    check("node_count", node_audit)
    results.sort(key=lambda c: c.name)

    failing = [k for k, defect in enumerate(node_defects) if defect > tol["node_count"]]
    warnings = (_node_warning(s, failing, len(node_defects)),) if failing else ()

    return VerificationReport(
        potential=v.describe(),
        grid=grid.describe(),
        checks=tuple(results),
        warnings=warnings,
        timings=tuple(timings),
    )


def corrupt_spectrum(s: Spectrum, mode: int, eps: float = 1e-3, seed: int = 0) -> Spectrum:
    """Return a copy with Gaussian noise of size eps added to one mode.

    The corrupted mode is renormalized but no longer orthogonal to its
    neighbors, so operator identities built from the result must fail; this
    is the negative control for the verification suite. The noise breaks
    the mirror symmetry of a folded spectrum's modes, so the copy is not
    folded.
    """
    if not (0 <= mode < s.n_modes):
        raise IndexError(f"mode index {mode} out of range 0..{s.n_modes - 1}")
    rng = np.random.default_rng(seed)
    modes = s.modes.copy()
    noisy = modes[:, mode] + eps * rng.standard_normal(s.grid.n)
    modes[:, mode] = noisy / np.linalg.norm(noisy)
    return replace(s, modes=modes, folded=False)
