"""Real confining potentials V(x) for H = -d2/dx2 + V(x).

Only confining polynomials (even degree, positive leading coefficient) are
admitted: the operator constructions downstream need a purely discrete
spectrum with a complete bound-state basis, which scattering potentials do
not provide. Coefficients must be real so the Hamiltonian stays real
symmetric.

Every potential, named or not, is evaluated by one Horner recurrence over
its coefficients, never by libm pow: pow(-x, k) and pow(x, k) can differ in
the last ulp, and downstream reflection handling requires V(-x_i) == V(x_i)
to hold exactly for even potentials on symmetric grids. Each rounding of
Horner's rule is sign-symmetric, so an even polynomial gives that bit for
bit, and a named family gives the bits of its coefficient tuple.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGridError, PotentialError
from .grids import Grid

EVENNESS_TOL = 1e-12

NAMED_POTENTIALS = {
    "harmonic": (0.0, 0.0, 1.0),
    "quartic": (0.0, 0.0, 0.0, 0.0, 1.0),
    "quartic_cubic": (0.0, 0.0, 0.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class Potential:
    """Polynomial potential, optionally one of the named families."""

    coefficients: tuple  # ascending powers, trailing zeros stripped
    name: str | None = None  # set for the named families only

    def describe(self) -> dict:
        if self.name is not None:
            return {"named": self.name}
        return {"poly": list(self.coefficients)}

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _validate_confining(coeffs: np.ndarray) -> tuple:
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise PotentialError("coefficient list must be a non-empty 1-D sequence")
    if np.iscomplexobj(coeffs):
        if np.any(coeffs.imag != 0):
            raise PotentialError("potential coefficients must be real")
        coeffs = coeffs.real
    coeffs = coeffs.astype(float)
    if not np.all(np.isfinite(coeffs)):
        raise PotentialError("potential coefficients must be finite")
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        raise PotentialError("potential must not be identically zero")
    degree = int(nz[-1])
    coeffs = coeffs[: degree + 1]
    if degree < 1:
        raise PotentialError("potential must have degree >= 1")
    if degree % 2 != 0:
        raise PotentialError(
            f"degree-{degree} potential is not confining (odd leading power)"
        )
    if coeffs[-1] <= 0:
        raise PotentialError("leading coefficient must be positive for confinement")
    return tuple(float(c) for c in coeffs)  # Python floats, so describe() shows plain numbers


def polynomial(coefficients) -> Potential:
    """Potential V(x) = sum_k c_k x^k from ascending coefficients."""
    coeffs = _validate_confining(np.asarray(coefficients))
    return Potential(coefficients=coeffs)


def named(name: str) -> Potential:
    """One of the built-in families: harmonic, quartic, quartic_cubic."""
    if name not in NAMED_POTENTIALS:
        known = ", ".join(sorted(NAMED_POTENTIALS))
        raise PotentialError(f"unknown potential {name!r} (known: {known})")
    return Potential(coefficients=NAMED_POTENTIALS[name], name=name)


def evaluate(v: Potential, x):
    """V(x) for a scalar or an array of positions, by Horner's rule in one array."""
    arr = np.asarray(x, dtype=float)
    val = np.full(arr.shape, v.coefficients[-1], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which assemble refuses
        for c in v.coefficients[-2::-1]:
            val *= arr
            val += c
    if arr.ndim == 0:
        return float(val)
    return val


def is_even(v: Potential, grid: Grid) -> bool:
    """Whether V(x) == V(-x) on the grid, within EVENNESS_TOL relative to max |V|.

    On a symmetric grid -x_i is itself a grid point, so the comparison is
    between the sample vector and its reversal.
    """
    if not grid.symmetric:
        raise AsymmetricGridError("evenness is only defined on a symmetric grid")
    vals = np.asarray(evaluate(v, grid.points))
    resid = np.abs(vals - vals[::-1]).max()
    return bool(resid <= EVENNESS_TOL * (1.0 + np.abs(vals).max()))
