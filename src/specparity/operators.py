"""Spectral grading operators built from a computed eigenbasis.

Every constructor here forms an action matrix A = sum_n w_n u_n u_n^T from
unimodular weights w_n: the alternating weights (-1)^n give the parity
operator, and cube-root-of-unity weights give the triparity operator. The
energy-weighted sum reconstructs the Hamiltonian itself.

Action matrices act on sample vectors; the corresponding continuum-style
kernel is K(x_i, x_j) = A[i, j] / h, so that h-weighted quadrature over the
kernel reproduces the matrix action. That conversion lives here and nowhere
else, which keeps stray h factors out of the operator identities.
"""
from __future__ import annotations

import os
from collections import namedtuple
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricGridError,
    GridMismatchError,
    NonUnimodularWeightError,
    TruncatedSpectrumError,
)
from .grids import Grid
from .schrodinger import Spectrum, _dyad_blocks, _dyad_rows, _fold_sizes
from .serial import fmt_rows

UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Dense action matrix of a coordinate-space operator on one grid.

    ``truncated`` marks operators built from fewer modes than the full
    basis; identity checks refuse those, since a partial dyad sum squares
    to a projector rather than the identity.
    """

    grid: Grid
    action: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        if self.action.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"action has shape {self.action.shape}, expected ({self.grid.n}, {self.grid.n})"
            )
        if not np.all(np.isfinite(self.action)):
            raise ValueError("operator action must be finite")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def kernel(self) -> np.ndarray:
        """Continuum-style kernel values K(x_i, x_j) = action / h."""
        return self.action / self.grid.h

    def kernel_rows(self):
        """The rows of ``kernel`` one at a time, bitwise equal to it.

        Writers stream these, so no n x n kernel copy is held besides A.
        """
        h = self.grid.h
        return (row / h for row in self.action)


@dataclass(frozen=True)
class GradingWeights:
    """Unit-modulus weight per mode index; defines a grading operator."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values))
        if vals.ndim != 1 or vals.size == 0:
            raise NonUnimodularWeightError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(vals)):
            raise NonUnimodularWeightError("weights must be finite")
        defect = np.abs(np.abs(vals) - 1.0).max()
        if defect > UNIT_MODULUS_TOL:
            raise NonUnimodularWeightError(
                f"weights deviate from unit modulus by {defect:.3e}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def alternating(cls, m: int) -> "GradingWeights":
        """(-1)^n, the parity grading."""
        return cls((-1.0) ** np.arange(m))

    @classmethod
    def cube_roots(cls, m: int, branch: int = +1) -> "GradingWeights":
        """omega^n with omega = e^{branch * 2 pi i / 3}.

        Computed from n mod 3 so the weights repeat exactly instead of
        accumulating phase error over the mode index.
        """
        if branch not in (+1, -1):
            raise NonUnimodularWeightError(f"branch must be +1 or -1, got {branch!r}")
        return cls(np.exp(1j * branch * (2.0 * np.pi / 3.0) * (np.arange(m) % 3)))


def _mode_block(s: Spectrum, truncate: int | None) -> np.ndarray:
    if truncate is None:
        if not s.is_full:
            raise TruncatedSpectrumError(
                f"construction needs all {s.grid.n} modes, got {s.n_modes}"
            )
        return s.modes
    if not (1 <= truncate <= s.n_modes):
        raise TruncatedSpectrumError(
            f"truncation {truncate} out of range 1..{s.n_modes}"
        )
    return s.modes[:, :truncate]


def build_graded(s: Spectrum, w, truncate: int | None = None) -> OperatorKernel:
    """Grading operator A = sum_n w_n u_n u_n^T for unimodular weights.

    Complex weights are written one row block at a time (``_dyad_blocks``):
    each block's real and imaginary dyad sums go straight into the parts of
    one preallocated complex A, so no whole real product is held beside it.
    The blocked products match the whole ones to rounding, not bit for bit.
    A folded spectrum's A is written on its top rows, from views of U's
    parity sectors, and mirrored into the rest, so it is centrosymmetric
    bit for bit. Real weights take one GEMM over all rows.
    """
    if not isinstance(w, GradingWeights):
        w = GradingWeights(np.asarray(w))
    block = _mode_block(s, truncate)
    if len(w) != block.shape[1]:
        raise NonUnimodularWeightError(
            f"got {len(w)} weights for {block.shape[1]} modes"
        )
    if np.iscomplexobj(w.values):
        n = block.shape[0]
        top = _fold_sizes(n)[1] if s.folded else n
        action = np.empty((n, n), complex)
        for part, weights in ((action.real, w.values.real), (action.imag, w.values.imag)):
            for rows, g in _dyad_blocks(s, block, weights):
                part[rows] = g
        action[top:] = action[: n - top][::-1, ::-1]
    else:
        action = _dyad_rows(block, w.values)
    return OperatorKernel(grid=s.grid, action=action, truncated=block.shape[1] < s.grid.n)


def build_parity(s: Spectrum, truncate: int | None = None) -> OperatorKernel:
    """Parity operator: alternating grading over the eigenbasis.

    Real symmetric, squares to the identity, commutes with the Hamiltonian,
    and has u_n as eigenvector with eigenvalue (-1)^n. Coincides with
    spatial reflection exactly when the potential is even.
    """
    m = s.n_modes if truncate is None else truncate
    return build_graded(s, GradingWeights.alternating(m), truncate)


def build_triparity(s: Spectrum, branch: int = +1, truncate: int | None = None) -> OperatorKernel:
    """Triparity operator: cube-root-of-unity grading. Unitary, not Hermitian."""
    m = s.n_modes if truncate is None else truncate
    return build_graded(s, GradingWeights.cube_roots(m, branch), truncate)


# A row of ``gradings``: the prefix of its check names, build(s, truncate=None),
# weights(mode count), the order m of A^m = I, and ||A - A^dagger||_2 (None: Hermitian).
Grading = namedtuple("Grading", "name build weights order target")


def gradings(branch: int = +1) -> dict:
    """The grading table, kernel label -> ``Grading``; the first label is the default kernel.

    Built on each call. ``build`` looks ``build_parity`` or ``build_triparity`` up in this
    module when it runs, so a rebinding of that name (a profiler's wrapper) sees every build.
    """
    return {
        "P": Grading("parity", lambda s, truncate=None: build_parity(s, truncate),
                     GradingWeights.alternating, 2, None),
        "Q": Grading("triparity", lambda s, truncate=None: build_triparity(s, branch, truncate),
                     lambda m: GradingWeights.cube_roots(m, branch), 3, np.sqrt(3.0)),
    }


def reconstruct_hamiltonian(s: Spectrum) -> OperatorKernel:
    """Energy-weighted dyad sum; must reproduce the assembled tridiagonal."""
    return OperatorKernel(grid=s.grid, action=_dyad_rows(_mode_block(s, None), s.energies))


def reflection_action(grid: Grid) -> OperatorKernel:
    """Spatial reflection x -> -x as the anti-identity permutation."""
    if not grid.symmetric:
        raise AsymmetricGridError(
            "reflection maps grid points outside an asymmetric grid"
        )
    return OperatorKernel(grid=grid, action=np.eye(grid.n)[::-1].copy())


@contextmanager
def _replace_on_success(path):
    """Write through a temporary file beside ``path``, renamed onto it on success.

    On any error the temporary file is removed, so a failed write (say, a
    kernel value that overflows to inf) leaves neither a partial file nor a
    stray temporary behind.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_kernel(k: OperatorKernel, csv_path=None, txt_path=None) -> None:
    """Kernel values K(x_i, x_j) as CSV, as a plain text dump, or both.

    The CSV starts with a header row of grid points; the text dump has one
    kernel row per line, for regression baselines. Each row is formatted
    once: its text line is its CSV line with spaces for commas, since no
    17g cell holds a comma. Both files are renamed into place only after
    every row is written, so a failed export leaves neither.
    """
    with ExitStack() as stack:
        csv, txt = (None if path is None else stack.enter_context(_replace_on_success(path))
                    for path in (csv_path, txt_path))
        if csv is not None:
            csv.writelines(fmt_rows([k.grid.points], ","))
        for line in fmt_rows(k.kernel_rows(), ","):
            if csv is not None:
                csv.write(line)
            if txt is not None:
                txt.write(line.replace(",", " "))


def write_kernel_csv(k: OperatorKernel, path) -> None:
    """Kernel values K(x_i, x_j) as CSV with a header row of grid points."""
    write_kernel(k, csv_path=path)


def write_kernel_txt(k: OperatorKernel, path) -> None:
    """Plain textual dump, one kernel row per line, for regression baselines."""
    write_kernel(k, txt_path=path)
