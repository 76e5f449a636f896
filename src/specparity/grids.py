"""Uniform truncated spatial domain and its discrete inner product.

The line is truncated to [x_min, x_max] with homogeneous Dirichlet
conditions; only the n interior points are stored, since the endpoint
samples are identically zero. The quadrature weight is h at every interior
point, which makes orthonormality and completeness of the discrete
eigenbasis exact identities rather than approximations.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidDomainError

SYMMETRY_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class Grid:
    """Interior points x_i = x_min + (i+1) h of a uniform Dirichlet grid.

    ``symmetric`` grids satisfy points[i] == -points[n-1-i] exactly (not
    merely to rounding); reflection operations rely on this.
    """

    x_min: float
    x_max: float
    n: int
    h: float
    points: np.ndarray
    symmetric: bool

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.x_min, self.x_max, self.n) == (other.x_min, other.x_max, other.n)

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.n))

    def describe(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n": self.n, "h": self.h}


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a grid of n interior points with spacing h = (x_max-x_min)/(n+1)."""
    x_min = float(x_min)
    x_max = float(x_max)
    if not isinstance(n, numbers.Integral):
        raise InvalidDomainError(f"n must be an integer, got {n!r}")
    n = int(n)
    if not (x_min < x_max):
        raise InvalidDomainError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    if not np.isfinite(x_max - x_min):  # also an infinite bound
        raise InvalidDomainError(f"need finite bounds and width, got [{x_min}, {x_max}]")
    if n < 2:
        raise InvalidDomainError(f"need at least 2 interior points, got n={n}")
    h = (x_max - x_min) / (n + 1)
    symmetric = abs(x_min + x_max) <= SYMMETRY_RTOL * (x_max - x_min)
    if symmetric:
        # Centered form: (i - (n-1)/2) is exact in floating point, so
        # points[i] == -points[n-1-i] holds exactly, and the midpoint of an
        # odd grid is exactly zero.
        points = h * (np.arange(n) - (n - 1) / 2.0)
    else:
        points = x_min + h * np.arange(1, n + 1)
    points.flags.writeable = False
    return Grid(x_min=x_min, x_max=x_max, n=n, h=h, points=points, symmetric=symmetric)


def require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise GridMismatchError(
            f"grids differ: ({a.x_min}, {a.x_max}, n={a.n}) vs ({b.x_min}, {b.x_max}, n={b.n})"
        )


def _as_samples(f, grid: Grid, name: str) -> np.ndarray:
    arr = np.asarray(f)
    if arr.shape != (grid.n,):
        raise GridMismatchError(f"{name} has shape {arr.shape}, expected ({grid.n},)")
    return arr


def inner_product(f, g, grid: Grid) -> complex:
    """Discrete <f, g> = h * sum_i conj(f_i) g_i.

    This is the uniform-weight quadrature realization of the continuum
    integral of f*(x) g(x) over the truncated domain.
    """
    fa = _as_samples(f, grid, "f")
    ga = _as_samples(g, grid, "g")
    return complex(grid.h * np.vdot(fa, ga))
