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

# Gaps at or below DEGENERACY_RTOL * max|E| are treated as numerically
# degenerate. In exact arithmetic a Jacobi matrix cannot have them, but the
# band-top modes of a reflection-symmetric Hamiltonian pair up with
# splittings far below machine precision; solve() takes such a Hamiltonian
# apart into its two parity blocks, so the members of a pair never meet.
DEGENERACY_RTOL = 1e-10
_GRAM_CHECK_RANK = 16
_GRAM_TOL = 1e-11
_SIGN_RTOL = 1e-8
_NODE_RTOL = 1e-9
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

    ``folded`` records that ``solve`` took T apart into its two parity
    blocks, because T's bands are palindromic. The modes of such a spectrum
    are exact mirrors, u_n[::-1] == (-1)^n u_n, so its dyad sums and Gram
    matrices are formed on its two half-size parity sectors (``_sectors``).
    A folded spectrum whose modes break the mirror raises ValueError.
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
        if not _rows_equal(n - n // 2, lambda r: u[n - r.stop : n - r.start][::-1], lambda r: u[r] * signs):
            raise ValueError(
                "the modes of a folded spectrum must be exact mirrors, u_k[::-1] == (-1)^k u_k"
            )

    @property
    def phi(self) -> np.ndarray:
        """Quadrature-normalized samples u_n / sqrt(h), the discrete version
        of unit-normalized eigenfunctions; a new n x n array on each read."""
        return self.modes / np.sqrt(self.grid.h)

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


def _solve_folded(hm: HamiltonianMatrix):
    """Eigenpairs of a palindromic T from its even and odd half-size blocks.

    In the basis (e_i +- e_{n-1-i}) / sqrt(2), plus e_m at the middle of an
    odd n, T is the direct sum of two tridiagonal blocks (Cantoni & Butler,
    Linear Algebra Appl. 13 (1976) 275-288). A block vector v unfolds to the
    mode [v/sqrt2, v_m, +-v[::-1]/sqrt2], whose halves are the same rounded
    numbers, so u[::-1] == (-1)^k u exactly. Mode 2k is the even block's
    k-th eigenvector and mode 2k+1 the odd block's, as the oscillation
    theorem orders them. Eigenvalues that contradict this alternation by
    more than the degeneracy guard raise DegenerateSpectrumError; within
    the guard the modes keep it and ``energies`` is sorted ascending.
    """
    n, d, e = hm.n, hm.diag, hm.offdiag
    m = n // 2
    root2 = np.sqrt(2.0)
    # first, so the odd block reuses the even block's freed memory; column-major,
    # as stemr returns U, so that the parity sectors are BLAS-ready views
    modes = np.empty((n, n), order="F")
    alternating = np.empty(n)
    for parity, cols in ((1.0, slice(0, None, 2)), (-1.0, slice(1, None, 2))):
        size = n - m if parity > 0 else m
        d_block, e_block = d[:size].copy(), e[: size - 1].copy()
        if n % 2 == 0:
            d_block[-1] += parity * e[m - 1]  # the two middle rows couple to each other
        elif parity > 0:
            e_block[-1] *= root2  # the middle row couples to both halves
        values, v = _eigh_tridiagonal(d_block, e_block)
        alternating[cols] = values
        u = modes[:, cols]
        np.divide(v[:m], root2, out=u[:m])
        np.divide(v[:m][::-1], parity * root2, out=u[n - m :])
        if n % 2:
            u[m] = v[m] if parity > 0 else 0.0
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


def _check_simple(energies: np.ndarray) -> None:
    """Raise DegenerateSpectrumError on a gap at or below the degeneracy guard."""
    gaps = np.diff(energies)
    guard = DEGENERACY_RTOL * np.abs(energies).max()
    close = np.flatnonzero(gaps <= guard)
    if close.size:
        k = int(close[0])
        raise DegenerateSpectrumError(
            f"{close.size} near-degenerate gap(s) (first between modes {k} and {k + 1}, "
            f"gap {gaps[k]:.3e} <= guard {guard:.3e}) and the Hamiltonian has no "
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
    the complete discrete basis for their identities to hold exactly. A
    reflection-symmetric T (palindromic bands) is solved as its two
    half-size parity blocks, and its spectrum is recorded as folded; any
    other T in one stemr call.
    """
    reflective = hm.palindromic
    if reflective:
        energies, modes = _solve_folded(hm)
    else:
        energies, modes = _eigh_tridiagonal(hm.diag, hm.offdiag)
        _check_simple(energies)
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
    top h = n - n//2 rows of the even and of the odd columns of u. U is
    column-major on both solve paths, so each sector has unit row stride
    and BLAS takes it as it is. The rows below the top are their mirror
    images, u[n-1-i, k] = (-1)^k u[i, k], and the middle row of an odd n is
    zero in the odd sector.
    """
    if not s.folded:
        return (u,)
    h = u.shape[0] - u.shape[0] // 2
    return u[:h, 0::2], u[:h, 1::2]


def _dyad_rows(block: np.ndarray, weights, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of the real dyad sum sum_n weights_n u_n u_n^T over the columns of block."""
    return (block[rows] * weights) @ block.T


def _dyad_blocks(s: Spectrum, u: np.ndarray, weights: np.ndarray):
    """Row blocks (rows, G[rows]) of the real dyad sum G = sum_k weights_k u_k u_k^T.

    u holds the first modes of s. For an unfolded spectrum the blocks cover
    all n rows, each formed as ``_dyad_rows`` forms it. A folded spectrum's
    G is centrosymmetric: only its top h = n - n//2 rows are yielded, and
    G[n-1-i] = G[i, ::-1] gives the others. Each top row is written from the
    half-size products Y_e and Y_o of the even and odd sectors (``_sectors``,
    views of u): G[i, j] = Y_e + Y_o for j < h and G[i, n-1-j] = Y_e - Y_o
    for j < n//2, a quarter of the whole product.
    """
    n = u.shape[0]
    if not s.folded:
        for rows in _row_blocks(n):
            yield rows, _dyad_rows(u, weights, rows)
        return
    m, h = n // 2, n - n // 2
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

    The dyad sum is formed in row blocks (``_dyad_blocks``) and B is
    subtracted through its bands. Of a folded spectrum only the top rows of
    the sum are formed; the others are their mirror images, so their defect
    is that of the top rows against J B J, whose bands are B's reversed.
    That mirror pass runs only when B's bands are not palindromic: else
    J B J is B, and it would find the maximum the direct pass finds.
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
    only the two half-size Gram matrices of its sectors are formed.
    """
    if not (1 <= rank <= s.n_modes):
        raise ValueError(f"rank must be in 1..{s.n_modes}, got {rank}")
    n, worst = s.grid.n, 0.0
    for sector in _sectors(s, s.modes[:, :rank]):
        weighted = sector
        if s.folded:  # a top row counts for its mirror too; the middle row of an odd n once
            weighted = sector * 2.0
            weighted[n // 2 :] = sector[n // 2 :]
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
    """Strict sign changes of mode k, ignoring entries below 1e-9 * max|u_k|."""
    if not (0 <= k < s.n_modes):
        raise IndexError(f"mode index {k} out of range 0..{s.n_modes - 1}")
    u = s.modes[:, k]
    sig = u[np.abs(u) > _NODE_RTOL * np.abs(u).max()]
    return int(np.sum(sig[:-1] * sig[1:] < 0))
