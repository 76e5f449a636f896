"""The corruption matrix: each corruption of a solved spectrum fails exactly its set of checks.

Each row corrupts the n=199 spectrum of quartic_cubic on [-10, 10], which
``solve`` does not fold, or of harmonic on [-8, 8], which it folds, and
runs the result through ``run_suite(..., spectrum=...)``. A corrupted
spectrum keeps the fold record only where its modes stay exact mirrors.
The sets were measured, not derived. Two readings of the table:

- a rotation of two modes keeps U orthonormal, so only the checks that
  compare with T (the commutators, the reconstruction, the reflection and
  the node audit) see it;
- the conservation checks fail only where U^T U != I, that is, on
  ``corrupt_spectrum``'s rows, since <psi(t)|P|psi(t)> is constant in t
  for any P = U W U^T with orthonormal U.

``parity_hermiticity`` cannot fail from any spectrum, since real weights
give a symmetric dyad sum, so its row feeds a perturbed kernel straight to
``check_hermiticity``.
"""
import dataclasses

import numpy as np
import pytest

import specparity as sp

ANGLE = 0.1  # radians
SHIFT = 0.1  # added to E_3; E_3 + SHIFT < E_4 on both potentials
KERNEL_DELTA = 1e-9  # added to one off-diagonal entry of the parity kernel

POTENTIALS = {"qc": ("qc_199", "quartic_cubic"), "harmonic": ("harmonic_199", "harmonic")}


def rotate(s, j, angle):
    """u_0 -> cos(angle) u_0 - sin(angle) u_j and u_j -> sin(angle) u_0 + cos(angle) u_j.

    Entry by entry, so two modes of one parity rotate into exact mirrors.
    """
    c, sn = np.cos(angle), np.sin(angle)
    modes = s.modes.copy()
    modes[:, 0] = c * s.modes[:, 0] - sn * s.modes[:, j]
    modes[:, j] = sn * s.modes[:, 0] + c * s.modes[:, j]
    return dataclasses.replace(s, modes=modes, folded=s.folded and j % 2 == 0)


def shift(s, k, by):
    energies = s.energies.copy()
    energies[k] += by
    return dataclasses.replace(s, energies=energies)


def flip(s, k):
    modes = s.modes.copy()
    modes[:, k] *= -1.0
    return dataclasses.replace(s, modes=modes)


ALL = frozenset(sp.DEFAULT_TOLERANCES)
COMMUTE = {"hamiltonian_reconstruction", "parity_commutator", "triparity_commutator"}
# label -> (corruption, failing set on quartic_cubic, failing set on harmonic)
ROWS = {
    "rotate-u0-u1-by+0.1": (lambda s: rotate(s, 1, ANGLE),
                            COMMUTE | {"node_count"}, COMMUTE | {"node_count", "reflection_reduction"}),
    "rotate-u0-u1-by-0.1": (lambda s: rotate(s, 1, -ANGLE),
                            COMMUTE | {"node_count"}, COMMUTE | {"node_count", "reflection_reduction"}),
    # u_0 and u_2 share the parity weight +1, so the parity does not move
    "rotate-u0-u2-by+0.1": (lambda s: rotate(s, 2, ANGLE),
                            {"hamiltonian_reconstruction", "node_count", "triparity_commutator"},
                            {"hamiltonian_reconstruction", "node_count", "triparity_commutator"}),
    # the rotated harmonic u_0 has no node in this sense
    "rotate-u0-u2-by-0.1": (lambda s: rotate(s, 2, -ANGLE),
                            {"hamiltonian_reconstruction", "node_count", "triparity_commutator"},
                            {"hamiltonian_reconstruction", "triparity_commutator"}),
    "corrupt-mode-2": (lambda s: sp.corrupt_spectrum(s, 2),
                       ALL - {"parity_hermiticity", "reflection_reduction"}, ALL - {"parity_hermiticity"}),
    # mode 3's triparity weight is 1, real, so ||Q - Q^dagger||_2 does not see it
    "corrupt-mode-3": (lambda s: sp.corrupt_spectrum(s, 3),
                       ALL - {"parity_hermiticity", "reflection_reduction", "triparity_nonhermiticity"},
                       ALL - {"parity_hermiticity", "triparity_nonhermiticity"}),
    "shift-E3-by+0.1": (lambda s: shift(s, 3, SHIFT), {"hamiltonian_reconstruction"}, {"hamiltonian_reconstruction"}),
    "flip-mode-3": (lambda s: flip(s, 3), set(), set()),
}
KERNEL_ROW = {"parity_hermiticity"}


@pytest.mark.parametrize("potential", POTENTIALS)
@pytest.mark.parametrize("row", ROWS)
def test_a_corruption_fails_exactly_its_checks(request, potential, row):
    fixture, name = POTENTIALS[potential]
    s = request.getfixturevalue(fixture)
    corrupt, on_qc, on_harmonic = ROWS[row]
    report = sp.run_suite(sp.named(name), s.grid, spectrum=corrupt(s))
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == (on_qc if potential == "qc" else on_harmonic)


@pytest.mark.parametrize("potential", POTENTIALS)
def test_a_perturbed_parity_kernel_fails_hermiticity(request, potential):
    s = request.getfixturevalue(POTENTIALS[potential][0])
    parity = sp.build_parity(s)
    tol = sp.DEFAULT_TOLERANCES["parity_hermiticity"]
    assert sp.check_hermiticity(parity) <= tol
    action = parity.action.copy()
    action[3, 7] += KERNEL_DELTA
    assert sp.check_hermiticity(sp.OperatorKernel(grid=s.grid, action=action)) > tol


def test_every_check_fails_in_some_row():
    failing = set(KERNEL_ROW)
    for _, on_qc, on_harmonic in ROWS.values():
        failing |= on_qc | on_harmonic
    assert failing == ALL and len(ALL) == 15
