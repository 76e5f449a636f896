"""Discretized Hamiltonian assembly and the full tridiagonal eigensolve.

Convention: H = -d2/dx2 + V(x) (hbar = 1, 2m = 1), discretized with the
second-order central difference under Dirichlet boundaries. The resulting
matrix is an unreduced Jacobi matrix: strictly negative off-diagonals, so
all eigenvalues are simple in exact arithmetic and the k-th eigenvector has
exactly k sign changes (oscillation theorem).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    EigensolverError,
    GridMismatchError,
    TruncatedSpectrumError,
)
from .grids import Grid
from .potentials import Potential, evaluate

# A gap at or below DEGENERACY_RTOL times the larger |E| of its two ends
# (at least eps * ||T||_max) is treated as numerically degenerate. In exact
# arithmetic a Jacobi matrix cannot have one, but the band-top modes of a
# reflection-symmetric Hamiltonian pair up with splittings far below machine
# precision; solve() takes such a Hamiltonian apart into its two parity
# blocks, so the members of a pair never meet.
DEGENERACY_RTOL = 1e-10
_GRAM_CHECK_RANK = 16
_GRAM_TOL = 1e-11
_SIGN_RTOL = 1e-8
# Streamed checks split their n x n work into this many row blocks.
_ROW_BLOCKS = 8


def _row_blocks(count: int, span: int | None = None):
    """Slices of ceil(span / 8) consecutive rows that cover 0..count-1.

    The checks stream through these blocks, so no check holds an n x n
    temporary: each block's work touches about n^2 / 8 entries. ``span``
    defaults to count, which makes eight blocks.
    """
    step = -(-(count if span is None else span) // _ROW_BLOCKS) or 1  # no blocks for count 0
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _fold_sizes(n: int) -> tuple:
    """(m, h) for n points: m mirrored pairs, and h = n - m top rows, the pairs' upper
    rows and, for an odd n, the middle row. The fold blocks (``fold_bands``) are h and m wide."""
    m = n // 2
    return m, n - m


def _top_weights(n: int) -> np.ndarray:
    """Weights of the h top rows of a mirror-symmetric n-row array: 2.0 for a row that
    stands for its mirror too, 1.0 for the middle row of an odd n, its own mirror."""
    m, h = _fold_sizes(n)
    return np.where(np.arange(h) < m, 2.0, 1.0)


def _max_abs(c: np.ndarray) -> float:
    """max|C|; a real C is reduced by its max and min, with no |C| temporary."""
    if np.iscomplexobj(c):
        return float(np.abs(c).max())
    return abs(float(max(c.max(), -c.min())))  # abs: an all -0.0 C gives 0.0, as |C| does


def _rows_equal(count: int, left, right) -> bool:
    """Whether left(rows) == right(rows) exactly for every row block of 0..count-1.

    Stops at the first row block with an unequal entry.
    """
    return all(np.array_equal(left(rows), right(rows)) for rows in _row_blocks(count))


def _identity_defect(c: np.ndarray, first_row: int = 0) -> float:
    """max|C - I| where C holds rows first_row.. of a matrix; C is overwritten.

    Row i of C meets the diagonal of I in column first_row + i.
    """
    c.flat[first_row :: c.shape[1] + 1] -= 1
    return _max_abs(c)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric tridiagonal action matrix T of -d2/dx2 + V on the grid.

    diag[i] = 2/h^2 + V(x_i), offdiag[i] = -1/h^2. Stored by bands, so
    symmetry is structural rather than numerical.
    """

    grid: Grid
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def palindromic(self) -> bool:
        """Whether both bands read the same reversed, that is, T commutes with
        the reflection J of the grid; derived on each read."""
        return bool(
            np.array_equal(self.diag, self.diag[::-1])
            and np.array_equal(self.offdiag, self.offdiag[::-1])
        )

    @property
    def norm_max(self) -> float:
        """Entrywise max norm of T."""
        return float(max(np.abs(self.diag).max(), np.abs(self.offdiag).max()))

    def to_dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.offdiag, 1)
            + np.diag(self.offdiag, -1)
        )

    def matvec(self, f, rows: slice = slice(None)) -> np.ndarray:
        """T f through the bands, for an (n,) vector or an (n, k) block of columns.

        ``rows`` (a unit-step slice) selects the rows of T f to form; they
        read f one row beyond each end of the slice.
        """
        f = np.asarray(f)
        if f.ndim not in (1, 2) or f.shape[0] != self.n:
            raise GridMismatchError(
                f"operand has shape {f.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        start, stop, _ = rows.indices(self.n)
        cols = (slice(None),) + (np.newaxis,) * (f.ndim - 1)
        out = self.diag[start:stop][cols] * f[start:stop]
        below = min(stop, self.n - 1)  # rows start..below-1 have a row below
        out[: below - start] += self.offdiag[start:below][cols] * f[start + 1 : below + 1]
        above = max(start, 1)  # rows above..stop-1 have a row above
        out[above - start :] += self.offdiag[above - 1 : stop - 1][cols] * f[above - 1 : stop - 1]
        return out

    def subtract_from(self, a: np.ndarray, first_row: int = 0) -> np.ndarray:
        """a - T in place, for a holding rows first_row.. of an (n, n) array.

        Only the three bands are subtracted; row i of a meets the diagonal in
        column first_row + i, as in ``_identity_defect``.
        """
        n, stop, step = self.n, first_row + len(a), self.n + 1
        if a.ndim != 2 or a.shape[1] != n or not 0 <= first_row < stop <= n:
            raise GridMismatchError(f"array of shape {a.shape} is not rows {first_row}.. of ({n}, {n})")
        a.flat[first_row::step] -= self.diag[first_row:stop]
        a.flat[first_row + 1 :: step] -= self.offdiag[first_row : min(stop, n - 1)]
        a.flat[first_row - 1 if first_row else n :: step] -= self.offdiag[max(first_row - 1, 0) : stop - 1]
        return a


@dataclass(frozen=True)
class Spectrum:
    """Eigensystem of the discretized Hamiltonian.

    energies are ascending; the columns of ``modes`` are Euclidean-
    orthonormal eigenvectors u_n with the first significant entry positive.

    ``folded`` records that ``solve`` took a palindromic T apart into its
    two fold blocks (``fold_bands``). The modes of such a spectrum are exact
    mirrors, u_n[::-1] == (-1)^n u_n, so its dyad sums and Gram matrices are
    formed on its parity sectors (``_sectors``); modes that break the mirror
    raise ValueError.
    """

    grid: Grid
    energies: np.ndarray
    modes: np.ndarray
    folded: bool = False

    def __post_init__(self):
        if not self.folded:
            return
        u = self.modes
        n, signs = u.shape[0], (-1.0) ** np.arange(u.shape[1])
        # row n-1-i against row i
        if not _rows_equal(_fold_sizes(n)[1], lambda r: u[n - r.stop : n - r.start][::-1], lambda r: u[r] * signs):
            raise ValueError(
                "the modes of a folded spectrum must be exact mirrors, u_k[::-1] == (-1)^k u_k"
            )

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]

    @property
    def is_full(self) -> bool:
        return self.n_modes == self.grid.n


def assemble_from_samples(values, grid: Grid) -> HamiltonianMatrix:
    """Hamiltonian from potential samples V(x_i) on the grid."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n,):
        raise GridMismatchError(f"potential samples have shape {vals.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential samples must be finite")
    inv_h2 = 1.0 / (grid.h * grid.h)
    with np.errstate(over="ignore"):
        diag = 2.0 * inv_h2 + vals
    if not np.all(np.isfinite(diag)):
        raise ValueError(f"the diagonal 2/h**2 + V of T is not finite (h={grid.h!r})")
    offdiag = np.full(grid.n - 1, -inv_h2)
    diag.flags.writeable = False
    offdiag.flags.writeable = False
    return HamiltonianMatrix(grid=grid, diag=diag, offdiag=offdiag)


def assemble(v: Potential, grid: Grid) -> HamiltonianMatrix:
    """Discretize -d2/dx2 + V with Dirichlet boundaries."""
    return assemble_from_samples(evaluate(v, grid.points), grid)


def _eigh_tridiagonal(diag: np.ndarray, offdiag: np.ndarray):
    """All eigenpairs of the symmetric tridiagonal matrix with these bands (LAPACK stemr)."""
    import scipy.linalg  # here, not at module top, so CLI start-up does not pay for it

    try:
        energies, vectors = scipy.linalg.eigh_tridiagonal(diag, offdiag, lapack_driver="stemr")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(energies)) or not np.all(np.isfinite(vectors)):
        raise EigensolverError("eigensolver returned non-finite values")
    return energies, vectors


def fold_bands(hm: HamiltonianMatrix) -> tuple:
    """The tridiagonals that ``solve`` diagonalizes, as (diag, offdiag, cols, sign).

    A T whose bands are not palindromic is one, its own bands. A palindromic
    T is two: the orthogonal fold F, columns (e_j +- e_{n-1-j})/sqrt(2) for
    j < m and e_m for an odd n (``_fold_sizes``), gives F^T T F = diag(B_e,
    B_o) of sizes h and m (Cantoni & Butler, Linear Algebra Appl. 13 (1976)
    275-288). B_e fills U's even columns with sign +1, B_o the odd, -1.
    """
    d, e = hm.diag, hm.offdiag
    if not hm.palindromic:
        return ((d, e, slice(None), 1.0),)
    m, h = _fold_sizes(hm.n)
    d_even, e_even, d_odd = d[:h].copy(), e[: h - 1].copy(), d[:m].copy()
    if m == h:  # the two middle rows couple to each other
        d_even[-1] += e[m - 1]
        d_odd[-1] -= e[m - 1]
    else:  # the middle row couples to both halves
        e_even[-1] *= np.sqrt(2.0)
    return (d_even, e_even, slice(0, None, 2), 1.0), (d_odd, e[: m - 1], slice(1, None, 2), -1.0)


def _solve_folded(hm: HamiltonianMatrix):
    """Eigenpairs of a palindromic T from its even and odd blocks (``fold_bands``).

    A block vector v unfolds to the mode [v/sqrt2, v_m, +-v[::-1]/sqrt2],
    so u[::-1] == (-1)^k u exactly. Mode 2k is the even block's k-th vector
    and mode 2k+1 the odd block's, as the oscillation theorem orders them.
    Eigenvalues that contradict this by more than the degeneracy guard raise
    DegenerateSpectrumError; within it ``energies`` is sorted ascending.
    """
    n = hm.n
    m, _ = _fold_sizes(n)
    root2 = np.sqrt(2.0)
    # first, so the odd block reuses the even block's freed memory; column-major,
    # as stemr returns U, so that the parity sectors are BLAS-ready views
    modes = np.empty((n, n), order="F")
    alternating = np.empty(n)
    for d_block, e_block, cols, sign in fold_bands(hm):
        values, v = _eigh_tridiagonal(d_block, e_block)
        alternating[cols] = values
        u = modes[:, cols]
        np.divide(v[:m], root2, out=u[:m])
        np.divide(v[:m][::-1], sign * root2, out=u[n - m :])
        if n % 2:
            u[m] = v[m] if sign > 0 else 0.0
        del v  # freed before the odd block is solved
    guard = DEGENERACY_RTOL * np.abs(alternating).max()
    gaps = np.diff(alternating)
    bad = np.flatnonzero(gaps < -guard)
    if bad.size:
        k = int(bad[0])
        raise DegenerateSpectrumError(
            f"{bad.size} eigenvalue(s) contradict the reflection-parity alternation "
            f"(first: E_{k} - E_{k + 1} = {-gaps[k]:.3e} > guard {guard:.3e})"
        )
    alternating.sort()
    return alternating, modes


def _check_simple(energies: np.ndarray, norm_max: float) -> None:
    """Raise DegenerateSpectrumError on a gap at or below its degeneracy guard.

    Gap k's guard is DEGENERACY_RTOL * max(|E_k|, |E_k+1|, eps ||T||_max): the
    scale of its own two eigenvalues, to which MRRR's accuracy is relative
    (Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1-28), not the
    largest |E|, which V at the walls sets.
    """
    gaps = np.diff(energies)
    scale = np.maximum(np.abs(energies[:-1]), np.abs(energies[1:]))
    guard = DEGENERACY_RTOL * np.maximum(scale, np.finfo(float).eps * norm_max)
    close = np.flatnonzero(gaps <= guard)
    if close.size:
        k = int(close[0])
        raise DegenerateSpectrumError(
            f"{close.size} near-degenerate gap(s) (first between modes {k} and {k + 1}, "
            f"gap {gaps[k]:.3e} <= guard {guard[k]:.3e}) and the Hamiltonian has no "
            f"exact reflection symmetry to resolve them"
        )


def _fix_signs(modes: np.ndarray) -> None:
    """Make the first entry above 1e-8 * max|u_n| of each column positive, in place.

    The first such row is found one row block at a time: no n x n temporary.
    """
    cols = modes.shape[1]
    thresh = _SIGN_RTOL * np.maximum(modes.max(axis=0), -modes.min(axis=0))
    first = np.full(cols, -1)  # stays -1, a zero entry, only in an all-zero column
    for rows in _row_blocks(modes.shape[0]):
        hit = np.abs(modes[rows]) > thresh
        new = (first < 0) & hit.any(axis=0)
        first[new] = rows.start + hit.argmax(axis=0)[new]
        if first.min() >= 0:
            break
    signs = np.sign(modes[first, np.arange(cols)])
    signs[signs == 0] = 1.0
    modes *= signs


def solve(hm: HamiltonianMatrix) -> Spectrum:
    """Full eigendecomposition of the tridiagonal Hamiltonian.

    All n eigenpairs are computed: downstream operator constructions need
    the complete discrete basis for their identities to hold exactly. Each
    tridiagonal of ``fold_bands`` takes one stemr call; a palindromic T's
    spectrum is recorded as folded.
    """
    reflective = hm.palindromic
    if reflective:
        energies, modes = _solve_folded(hm)
    else:
        energies, modes = _eigh_tridiagonal(hm.diag, hm.offdiag)
        _check_simple(energies, hm.norm_max)
    _fix_signs(modes)
    for arr in (energies, modes):
        arr.flags.writeable = False
    s = Spectrum(grid=hm.grid, energies=energies, modes=modes, folded=reflective)
    defect = check_orthonormality(s, min(_GRAM_CHECK_RANK, hm.n))
    if defect > _GRAM_TOL:
        raise EigensolverError(f"eigenvector orthonormality defect {defect:.3e} exceeds {_GRAM_TOL:g}")
    return s


def _sectors(s: Spectrum, u: np.ndarray) -> tuple:
    """The parity sectors of u, the first u.shape[1] modes of s, as views of u.

    An unfolded spectrum is one sector, u itself. A folded one is two: the
    top h rows (``_fold_sizes``) of the even and of the odd columns of u,
    whose mirror images are the rows below; the middle row of an odd n is
    zero in the odd sector. U is column-major on both solve paths, so each
    sector has unit row stride and BLAS takes it as it is.
    """
    if not s.folded:
        return (u,)
    h = _fold_sizes(u.shape[0])[1]
    return u[:h, 0::2], u[:h, 1::2]


def _dyad_rows(block: np.ndarray, weights, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of the real dyad sum sum_n weights_n u_n u_n^T over the columns of block."""
    return (block[rows] * weights) @ block.T


def _dyad_blocks(s: Spectrum, u: np.ndarray, weights: np.ndarray):
    """Row blocks (rows, G[rows]) of the real dyad sum G = sum_k weights_k u_k u_k^T.

    u holds the first modes of s. For an unfolded spectrum the blocks cover
    all n rows, each formed as ``_dyad_rows`` forms it. A folded spectrum's
    G is centrosymmetric: only its top h rows (``_fold_sizes``) are yielded,
    and G[n-1-i] = G[i, ::-1] gives the others. Each is written from the
    products Y_e and Y_o of the sectors (``_sectors``): G[i, j] = Y_e + Y_o
    for j < h and G[i, n-1-j] = Y_e - Y_o for j < m, a quarter of the work.
    """
    n = u.shape[0]
    if not s.folded:
        for rows in _row_blocks(n):
            yield rows, _dyad_rows(u, weights, rows)
        return
    m, h = _fold_sizes(n)
    even, odd = _sectors(s, u)
    for rows in _row_blocks(h):
        y_e = _dyad_rows(even, weights[0::2], rows)
        y_o = _dyad_rows(odd, weights[1::2], rows)
        g = np.empty((len(y_e), n))
        np.add(y_e, y_o, out=g[:, :h])
        np.subtract(y_e[:, m - 1 :: -1], y_o[:, m - 1 :: -1], out=g[:, h:])
        yield rows, g


def _dyad_defect(s: Spectrum, weights: np.ndarray, bands: HamiltonianMatrix) -> float:
    """max|sum_n weights_n u_n u_n^T - B| over all modes of s, for a tridiagonal B.

    The dyad sum is formed in row blocks (``_dyad_blocks``), B subtracted
    through its bands. Of a folded spectrum only the top rows are formed;
    the defect of their mirror images is that of the top rows against
    J B J, whose bands are B's reversed. That pass is skipped for a
    palindromic B, where J B J is B.
    """
    if not s.is_full:
        raise TruncatedSpectrumError(f"a dyad-sum defect needs all {s.grid.n} modes, got {s.n_modes}")
    mirror = None
    if s.folded and not bands.palindromic:
        mirror = HamiltonianMatrix(grid=bands.grid, diag=bands.diag[::-1], offdiag=bands.offdiag[::-1])
    worst = 0.0
    for rows, g in _dyad_blocks(s, s.modes, weights):
        if mirror is not None:
            worst = max(worst, _max_abs(mirror.subtract_from(g.copy(), rows.start)))
        worst = max(worst, _max_abs(bands.subtract_from(g, rows.start)))
    return worst


def check_orthonormality(s: Spectrum, rank: int) -> float:
    """Max deviation of the Gram matrix of the first ``rank`` modes from the identity.

    The quadrature Gram h * phi^T phi of the samples is U^T U, taken here
    from the modes directly, one row block at a time. The even and odd modes
    of a folded spectrum are orthogonal exactly, term by mirrored term, so
    only the Gram matrices of its sectors are formed, on rows weighted by
    ``_top_weights``.
    """
    if not (1 <= rank <= s.n_modes):
        raise ValueError(f"rank must be in 1..{s.n_modes}, got {rank}")
    worst = 0.0
    for sector in _sectors(s, s.modes[:, :rank]):
        weighted = sector  # first, so the last sector's weighted copy is freed before the next is made
        if s.folded:
            weighted = sector * _top_weights(s.grid.n)[:, np.newaxis]
        for rows in _row_blocks(sector.shape[1]):
            worst = max(worst, _identity_defect(sector[:, rows].T @ weighted, rows.start))
    return worst


def check_completeness(s: Spectrum) -> float:
    """Max deviation of sum_n u_n u_n^T from the identity.

    Equals the discrete completeness statement max |h * sum_n
    phi_n(x_i) phi_n(x_j) - delta_ij|; requires the full spectrum. The sum
    is formed in row blocks with unit weights, as the gradings are, and the
    identity is subtracted as the tridiagonal with a unit diagonal and zero
    off-diagonals (``_dyad_defect``).
    """
    n = s.grid.n
    identity = HamiltonianMatrix(grid=s.grid, diag=np.ones(n), offdiag=np.zeros(n - 1))
    return _dyad_defect(s, np.ones(s.n_modes), identity)


def count_nodes(s: Spectrum, k: int) -> int:
    """Sign changes of mode k between its nonzero entries, however small.

    The signs are read, not products, which could underflow to zero.
    """
    if not (0 <= k < s.n_modes):
        raise IndexError(f"mode index {k} out of range 0..{s.n_modes - 1}")
    u = s.modes[:, k]
    negative = np.signbit(u[u != 0])
    return int(np.count_nonzero(negative[:-1] != negative[1:]))
