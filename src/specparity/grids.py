"""Uniform truncated spatial domain.

The line is truncated to [x_min, x_max] with homogeneous Dirichlet
conditions; only the n interior points are stored, since the endpoint
samples are identically zero. The quadrature weight is h at every interior
point, which makes orthonormality and completeness of the discrete
eigenbasis exact identities rather than approximations.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidDomainError

SYMMETRY_RTOL = 1e-14


@dataclass(frozen=True)
class Grid:
    """Interior points x_i = x_min + (i+1) h of a uniform Dirichlet grid.

    ``symmetric`` grids satisfy points[i] == -points[n-1-i] exactly (not
    merely to rounding); reflection operations rely on this.
    """

    x_min: float
    x_max: float
    n: int

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) <= SYMMETRY_RTOL * (self.x_max - self.x_min)

    @functools.cached_property
    def points(self) -> np.ndarray:
        if self.symmetric:
            # Centered form: (i - (n-1)/2) is exact in floating point, so
            # points[i] == -points[n-1-i] holds exactly, and the midpoint of
            # an odd grid is exactly zero.
            points = self.h * (np.arange(self.n) - (self.n - 1) / 2.0)
        else:
            points = self.x_min + self.h * np.arange(1, self.n + 1)
        points.flags.writeable = False
        return points

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
    grid = Grid(x_min=x_min, x_max=x_max, n=n)
    h2 = grid.h * grid.h
    if h2 == 0 or not np.isfinite(2.0 / h2):  # the kinetic part of T's diagonal
        raise InvalidDomainError(f"spacing h={grid.h!r} is too small: 2/h**2 is not a finite double")
    return grid


def require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise GridMismatchError(
            f"grids differ: ({a.x_min}, {a.x_max}, n={a.n}) vs ({b.x_min}, {b.x_max}, n={b.n})"
        )

