"""The streamed checks against their dense formulas, and their memory budget.

Every check that used to hold n x n temporaries now works through eight row
blocks of ceil(n/8) rows. These tests pin the blocked results to the dense
formulas at sizes where the blocks are single rows (n=5), uneven (n=9, 199)
and even (n=200), and bound what each check allocates.
"""
import tracemalloc

import numpy as np
import pytest

import specparity as sp
from specparity.verify import _reconstruction_defect, reflection_defect

from test_verify import _dense_alternation, dense_commutator

BLOCK_SIZES = [5, 9, 199, 200]


def _solved(n):
    grid = sp.make_grid(-8, 8, n)
    hm = sp.assemble(sp.named("harmonic"), grid)
    return hm, sp.solve(hm)


@pytest.fixture(scope="module", params=BLOCK_SIZES)
def case(request):
    """Harmonic problem of size n with P, Q and random real and complex kernels."""
    n = request.param
    hm, s = _solved(n)
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    cplx = real + 1j * rng.standard_normal((n, n))
    kernels = {
        "parity": sp.build_parity(s),
        "triparity": sp.build_triparity(s),
        "random_real": sp.OperatorKernel(grid=s.grid, action=real),
        "random_complex": sp.OperatorKernel(grid=s.grid, action=cplx),
    }
    return hm, s, kernels


def test_elementwise_checks_equal_the_dense_formulas(case):
    hm, s, kernels = case
    n = s.grid.n
    for k in kernels.values():
        a = k.action
        assert sp.check_hermiticity(k) == np.abs(a - a.conj().T).max()
        assert reflection_defect(k) == np.abs(a - np.eye(n)[::-1]).max()
        assert np.array_equal(k.action, a)  # the checks leave the kernel untouched


def test_real_identity_path_equals_the_dense_formula(case):
    hm, s, kernels = case
    eye = np.eye(s.grid.n)
    for name in ("parity", "random_real"):
        a = kernels[name].action
        assert sp.check_involution(kernels[name]) == np.abs(a @ a - eye).max()
        assert sp.check_cube(kernels[name]) == np.abs(a @ a @ a - eye).max()


def test_streamed_complex_powers_match_the_dense_formula(case):
    hm, s, kernels = case
    eye = np.eye(s.grid.n)
    a = kernels["random_complex"].action
    assert sp.check_order(kernels["random_complex"], 2) == pytest.approx(
        np.abs(a @ a - eye).max(), rel=1e-12
    )
    assert sp.check_order(kernels["random_complex"], 3) == pytest.approx(
        np.abs(a @ a @ a - eye).max(), rel=1e-12
    )
    q = kernels["triparity"].action
    assert sp.check_cube(kernels["triparity"]) <= 1e-10
    assert sp.check_involution(kernels["triparity"]) == pytest.approx(
        np.abs(q @ q - eye).max(), rel=1e-12
    )


def test_streamed_gemm_checks_match_the_dense_formulas(case):
    hm, s, kernels = case
    n = s.grid.n
    for name in ("random_real", "random_complex"):
        k = kernels[name]
        assert sp.check_commutator(k, hm) == pytest.approx(dense_commutator(k, hm), rel=1e-12)
        for w in (sp.GradingWeights.alternating(n), sp.GradingWeights.cube_roots(n)):
            assert sp.check_alternation(k, s, w) == pytest.approx(
                _dense_alternation(k, s, w), rel=1e-12
            )
    # a basis far from orthonormal makes the Gram residuals macroscopic
    u = kernels["random_real"].action / np.sqrt(n)
    skewed = sp.Spectrum(grid=s.grid, energies=s.energies, modes=u)
    eye = np.eye(n)
    assert sp.check_orthonormality(skewed, n) == pytest.approx(
        np.abs(u.T @ u - eye).max(), rel=1e-12
    )
    assert sp.check_orthonormality(skewed, n // 2 + 1) == pytest.approx(
        np.abs(u[:, : n // 2 + 1].T @ u[:, : n // 2 + 1] - eye[: n // 2 + 1, : n // 2 + 1]).max(),
        rel=1e-12,
    )
    assert sp.check_completeness(skewed) == pytest.approx(np.abs(u @ u.T - eye).max(), rel=1e-12)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("weight", [1.0, 1.0 + 2.0j])
def test_commutator_reads_the_halo_rows_at_block_edges(n, weight):
    # Entries in the last row of one block and the first row of the next,
    # in a column where V is larger: each of the two rows of T A there sums
    # a term from the other row, and those two commutator entries are the
    # largest. A block that dropped its one-row halo would miss the cross
    # term and report a smaller value.
    hm, s = _solved(n)
    step = -(-n // 8)
    edge = step * round(n / 2 / step)  # first row of a block near the middle
    a = np.zeros((n, n), dtype=type(weight))
    a[edge - 1, 0] = a[edge, 0] = weight
    k = sp.OperatorKernel(grid=s.grid, action=a)
    dense = dense_commutator(k, hm)
    assert sp.check_commutator(k, hm) == pytest.approx(dense, rel=1e-12)
    # the halo term decides the maximum
    no_halo = a.copy()
    no_halo[edge - 1, 0] = 0.0
    lower = dense_commutator(sp.OperatorKernel(grid=s.grid, action=no_halo), hm)
    assert dense > lower * (1 + 1e-9)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_streamed_reconstruction_matches_the_dense_formula(n):
    hm, s = _solved(n)

    def dense(t):
        return np.abs(sp.reconstruct_hamiltonian(s).action - t.to_dense()).max() / t.norm_max

    assert _reconstruction_defect(s, hm) == pytest.approx(dense(hm), abs=1e-13)
    # Move the off-diagonal of T that couples the last row of one block to
    # the first row of the next: its two entries then decide the maximum,
    # and a block that subtracted the wrong band entry there would miss it.
    step = -(-n // 8)
    edge = step * round(n / 2 / step)  # first row of a block near the middle
    offdiag = hm.offdiag.copy()
    offdiag[edge - 1] += 1e-6 * hm.norm_max
    moved = sp.HamiltonianMatrix(grid=hm.grid, diag=hm.diag, offdiag=offdiag)
    assert dense(moved) == pytest.approx(1e-6 * hm.norm_max / moved.norm_max, rel=1e-6)
    assert _reconstruction_defect(s, moved) == pytest.approx(dense(moved), rel=1e-9)


def test_check_order_is_the_common_identity_check(harmonic_199):
    q = sp.build_triparity(harmonic_199)
    assert sp.check_order(q, 3) == sp.check_cube(q)
    assert sp.check_order(q, 2) == sp.check_involution(q)
    with pytest.raises(ValueError):
        sp.check_order(q, 1)
    with pytest.raises(sp.TruncatedOperatorError):
        sp.check_order(sp.build_triparity(harmonic_199, truncate=50), 3)


def test_hermiticity_gap_of_a_real_kernel_matches_dense_eigvalsh():
    grid = sp.make_grid(-1, 1, 60)
    a = np.random.default_rng(5).standard_normal((60, 60))
    dense = np.abs(np.linalg.eigvalsh((a - a.T) / 1j)).max()
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=grid, action=a))
    assert gap == pytest.approx(dense, abs=1e-12)


# Each check may allocate at most this many n x n float64 arrays beyond its
# inputs. At n=400 the eight row blocks hold 50 rows each. tracemalloc sees
# numpy's array buffers, but not the copy matmul makes of an operand BLAS
# cannot take, such as the strided real part of a complex array; a per-stage
# VmHWM probe of a whole run is what shows those.
BUDGET_N = 400
BUDGET_ARRAYS = 1.25


@pytest.fixture(scope="module")
def budget_case():
    hm, s = _solved(BUDGET_N)
    psi = (s.modes[:, 0] + s.modes[:, 1]) / np.sqrt(2.0)
    return hm, s, sp.build_parity(s), sp.build_triparity(s), psi


BUDGET_CHECKS = {
    "orthonormality": lambda hm, s, p, q, psi: sp.check_orthonormality(s, s.n_modes),
    "completeness": lambda hm, s, p, q, psi: sp.check_completeness(s),
    "parity_hermiticity": lambda hm, s, p, q, psi: sp.check_hermiticity(p),
    "triparity_hermiticity": lambda hm, s, p, q, psi: sp.check_hermiticity(q),
    "parity_commutator": lambda hm, s, p, q, psi: sp.check_commutator(p, hm),
    "triparity_commutator": lambda hm, s, p, q, psi: sp.check_commutator(q, hm),
    "parity_involution": lambda hm, s, p, q, psi: sp.check_involution(p),
    "triparity_cube": lambda hm, s, p, q, psi: sp.check_cube(q),
    "parity_alternation": lambda hm, s, p, q, psi: sp.check_alternation(p, s),
    "triparity_alternation": lambda hm, s, p, q, psi: sp.check_alternation(
        q, s, sp.GradingWeights.cube_roots(s.n_modes)
    ),
    "reflection_reduction": lambda hm, s, p, q, psi: sp.check_reflection_reduction(
        p, sp.named("harmonic"), s.grid
    ),
    "conservation": lambda hm, s, p, q, psi: sp.check_conservation(
        p, s, psi, np.linspace(0.0, 10.0, 101)
    ),
    "triparity_nonhermiticity": lambda hm, s, p, q, psi: sp.spectral_hermiticity_gap(q),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CHECKS))
def test_check_allocates_at_most_its_budget(budget_case, name):
    check = BUDGET_CHECKS[name]
    check(*budget_case)  # first-call allocations (imports, caches) are not the check's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check(*budget_case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - base) / (8.0 * BUDGET_N * BUDGET_N)
    assert arrays <= BUDGET_ARRAYS, f"{name} allocated {arrays:.2f} n x n arrays"


# The suite keeps one grading operator alive at a time and never forms the
# reconstruction: its peak is the triparity build, whose real product and
# complex copy are 3 x 8n^2, plus the streamed checks. Holding P through
# the triparity build, or a whole reconstruction, costs one more n x n array.
SUITE_BUDGET_ARRAYS = 4.25


@pytest.mark.parametrize("name, x_max", [("harmonic", 8), ("quartic_cubic", 10)])
def test_suite_allocates_at_most_its_budget(name, x_max):
    v, grid = sp.named(name), sp.make_grid(-x_max, x_max, BUDGET_N)
    s = sp.solve(sp.assemble(v, grid))
    sp.run_suite(v, grid, spectrum=s)  # first-call allocations are not the suite's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = sp.run_suite(v, grid, spectrum=s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    arrays = (peak - base) / (8.0 * BUDGET_N * BUDGET_N)
    assert arrays <= SUITE_BUDGET_ARRAYS, f"run_suite allocated {arrays:.2f} n x n arrays"
