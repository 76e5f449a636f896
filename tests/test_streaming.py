"""The streamed checks and builds against their dense formulas, and their memory budget.

Every check that used to hold n x n temporaries now works through eight row
blocks of ceil(n/8) rows, and so does the build of a complex grading. These
tests pin the blocked results to the dense formulas at sizes where the
blocks are single rows (n=5), uneven (n=9, 199) and even (n=200), and bound
what each check, the triparity build and a sweep allocate.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import specparity as sp
from specparity import verify
from specparity.cli import main
from specparity.schrodinger import _identity_defect, _row_blocks, _sectors
from specparity.verify import _centrosymmetric, _reconstruction_defect, reflection_defect

from test_schrodinger import DOUBLE_WELL
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


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("truncated", [False, True])
def test_graded_build_matches_the_whole_dyad_sum(n, truncated):
    # A complex grading is written one row block at a time, so it may
    # differ from the whole two-GEMM product at rounding level; a real
    # grading is one GEMM, equal to the whole product bit for bit.
    hm, s = _solved(n)
    m = n // 2 + 1 if truncated else n
    truncate = m if truncated else None
    u = s.modes[:, :m]
    for branch in (+1, -1):
        w = sp.GradingWeights.cube_roots(m, branch).values
        q = sp.build_triparity(s, branch, truncate=truncate).action
        whole = np.empty((n, n), complex)
        whole.real = (u * w.real) @ u.T
        whole.imag = (u * w.imag) @ u.T
        assert np.abs(q - whole).max() <= 1e-15
    w = sp.GradingWeights.alternating(m).values
    assert np.array_equal(sp.build_parity(s, truncate=truncate).action, (u * w) @ u.T)


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


@pytest.mark.parametrize("n", [199, 200, 399, 400])
def test_cube_of_a_centrosymmetric_grading_keeps_the_bits_of_the_eight_block_stream(n):
    # Q is streamed in blocks of ceil((n - n//2)/8) rows, the height of its
    # other checks; the residual equals, bit for bit, the one formed over
    # blocks of ceil(n/8) rows.
    _, s = _solved(n)
    q = sp.build_triparity(s)
    a = q.action
    assert _centrosymmetric(a)
    eight = max(_identity_defect((a[rows] @ a) @ a, rows.start) for rows in _row_blocks(n))
    assert sp.check_cube(q) == eight


def test_hermiticity_gap_of_a_real_kernel_matches_dense_eigvalsh():
    grid = sp.make_grid(-1, 1, 60)
    a = np.random.default_rng(5).standard_normal((60, 60))
    dense = np.abs(np.linalg.eigvalsh((a - a.T) / 1j)).max()
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=grid, action=a))
    assert gap == pytest.approx(dense, abs=1e-12)


def test_unfolded_spectrum_keeps_the_row_block_formulas(qc_199):
    # An asymmetric spectrum is one sector: its sums are the whole-row
    # products of the row blocks, bit for bit.
    s, u, n = qc_199, qc_199.modes, 199
    assert not s.folded
    hm = sp.assemble(sp.named("quartic_cubic"), s.grid)
    eye, t = np.eye(n), hm.to_dense()
    for branch in (+1, -1):
        w = sp.GradingWeights.cube_roots(n, branch).values
        oracle = np.empty((n, n), complex)
        for rows in _row_blocks(n):
            oracle.real[rows] = (u[rows] * w.real) @ u.T
            oracle.imag[rows] = (u[rows] * w.imag) @ u.T
        assert np.array_equal(sp.build_triparity(s, branch).action, oracle)
    blocks = list(_row_blocks(n))
    assert sp.check_completeness(s) == max(np.abs(u[b] @ u.T - eye[b]).max() for b in blocks)
    assert sp.check_orthonormality(s, n) == max(np.abs(u[:, b].T @ u - eye[b]).max() for b in blocks)
    assert _reconstruction_defect(s, hm) == (
        max(np.abs((u[b] * s.energies) @ u.T - t[b]).max() for b in blocks) / hm.norm_max
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 199, 200])
@pytest.mark.parametrize("v", [sp.named("harmonic"), DOUBLE_WELL], ids=["harmonic", "double_well"])
def test_sector_sums_match_the_dense_formulas(v, n):
    # odd and even n, a middle row or none, full and truncated builds
    hm = sp.assemble(v, sp.make_grid(-8, 8, n))
    s = sp.solve(hm)
    assert s.folded
    for m in sorted({n, n // 2 + 1}):
        u = s.modes[:, :m]
        for branch in (+1, -1):
            w = sp.GradingWeights.cube_roots(m, branch).values
            q = sp.build_triparity(s, branch, truncate=None if m == n else m).action
            whole = (u * w.real) @ u.T + 1j * ((u * w.imag) @ u.T)
            assert np.abs(q - whole).max() <= 1e-15
            assert np.array_equal(q, q[::-1, ::-1])
    # a zeroed mode keeps the mirror and makes the residuals macroscopic
    modes = s.modes.copy()
    modes[:, 1] = 0.0
    broken = dataclasses.replace(s, modes=modes)
    assert broken.folded
    u, eye = modes, np.eye(n)
    assert sp.check_completeness(broken) == pytest.approx(np.abs(u @ u.T - eye).max(), rel=1e-12)
    assert sp.check_orthonormality(broken, n) == pytest.approx(np.abs(u.T @ u - eye).max(), rel=1e-12)
    dense = np.abs((u * s.energies) @ u.T - hm.to_dense()).max() / hm.norm_max
    assert _reconstruction_defect(broken, hm) == pytest.approx(dense, rel=1e-12)
    # against a T that is not its own mirror image the bottom rows decide
    diag = hm.diag.copy()
    diag[-1] += 1e-3 * hm.norm_max
    moved = sp.HamiltonianMatrix(grid=hm.grid, diag=diag, offdiag=hm.offdiag)
    dense = np.abs((s.modes * s.energies) @ s.modes.T - moved.to_dense()).max() / moved.norm_max
    assert dense > 1e-4
    assert _reconstruction_defect(s, moved) == pytest.approx(dense, rel=1e-9)


# Sizes for the folded alternation and the top-rows commutator: a middle
# row or none, blocks of one row (n <= 9) and uneven or even blocks. At n=2
# every centrosymmetric A commutes with a palindromic T, so the residuals
# there are rounding and only the absolute floor of _matches can hold.
FOLD_SIZES = [2, 3, 4, 5, 9, 199, 200]


def _matches(dense):
    return pytest.approx(dense, rel=1e-12, abs=1e-15)


def _centrosymmetric_kernels(s):
    """Q and a random complex a + a[::-1, ::-1], both centrosymmetric bit for bit."""
    n = s.grid.n
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kernels = {
        "triparity": sp.build_triparity(s),
        "random": sp.OperatorKernel(grid=s.grid, action=a + a[::-1, ::-1]),
    }
    assert all(_centrosymmetric(k.action) for k in kernels.values())
    return kernels


def _moved(k, *entries, delta=0.5):
    """k with delta added to each (i, j) entry."""
    a = k.action.copy()
    for i, j in entries:
        a[i, j] += delta
    return sp.OperatorKernel(grid=k.grid, action=a)


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_folded_alternation_matches_the_dense_formula(n):
    # full and truncated folded spectra, with an odd and an even mode count
    hm, s = _solved(n)
    kernels = _centrosymmetric_kernels(s)
    q = kernels["triparity"]
    pair = _moved(q, (0, 1), (n - 1, n - 2))  # a mirrored pair: still centrosymmetric
    bottom = _moved(q, (n - 1, 1))  # one bottom-half entry: whole rows
    assert _centrosymmetric(pair.action) and not _centrosymmetric(bottom.action)
    for m in sorted({n, n // 2, n // 2 + 1}):
        t = dataclasses.replace(s, modes=s.modes[:, :m])
        assert t.folded
        for w in (sp.GradingWeights.cube_roots(m), sp.GradingWeights.alternating(m)):
            for k in (*kernels.values(), pair, bottom):
                assert sp.check_alternation(k, t, w) == _matches(_dense_alternation(k, t, w))
        w = sp.GradingWeights.cube_roots(m)
        for k in (pair, bottom):  # the moved entries make the residuals macroscopic
            assert _dense_alternation(k, t, w) > 1e-3


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_top_rows_commutator_matches_the_dense_formula(n):
    hm, s = _solved(n)
    assert hm.palindromic
    kernels = _centrosymmetric_kernels(s)
    q = kernels["triparity"]
    pair = _moved(q, (0, 1), (n - 1, n - 2))
    bottom = _moved(q, (n - 1, 1))
    for k in (*kernels.values(), pair, bottom):
        assert sp.check_commutator(k, hm) == _matches(dense_commutator(k, hm))
    if n > 2:
        for k in (pair, bottom):
            assert dense_commutator(k, hm) > 1e-4


def _two_branch_commutator(k, hm):
    """Reference with one branch per dtype: C = A T - T A formed whole through
    the bands, over the rows the check reads (the top half when T is
    palindromic and A its own mirror image), then max|C| for a real A and
    sqrt(max((Re C)^2 + (Im C)^2)) for a complex one, with no scaling. A C
    formed with dense GEMMs rounds differently."""
    a, n = k.action, k.n
    top = n - n // 2 if hm.palindromic and np.array_equal(a, a[::-1, ::-1]) else n

    def c(part):
        return (hm.matvec(part.T).T - hm.matvec(part))[:top]

    if np.iscomplexobj(a):
        return float(np.sqrt((c(a.real) ** 2 + c(a.imag) ** 2).max())) / hm.norm_max
    return float(np.abs(c(a)).max()) / hm.norm_max


@pytest.mark.parametrize("n", [2, 3, 99, 200])
@pytest.mark.parametrize("name, x_max", [("harmonic", 8), ("quartic_cubic", 10)])
def test_commutator_equals_the_two_branch_formula_bit_for_bit(name, x_max, n):
    grid = sp.make_grid(-x_max, x_max, n)
    hm = sp.assemble(sp.named(name), grid)
    s = sp.solve(hm)
    rng = np.random.default_rng(n)
    r = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    actions = [r, r + r[::-1, ::-1], c, c + c[::-1, ::-1], np.zeros((n, n)), -np.zeros((n, n))]
    kernels = [sp.build_parity(s), sp.build_triparity(s)]
    kernels += [sp.OperatorKernel(grid=grid, action=a) for a in actions]
    assert hm.palindromic == (name == "harmonic")
    for k in kernels:
        assert sp.check_commutator(k, hm) == _two_branch_commutator(k, hm)


@pytest.mark.parametrize("n", FOLD_SIZES[1:])
def test_commutator_with_a_moved_t_reads_every_row(n):
    # A centrosymmetric A with zero first and last columns: moving T's last
    # diagonal entry then changes only the last row of A T - T A, so the
    # top rows alone would miss the maximum.
    hm, s = _solved(n)
    a = _centrosymmetric_kernels(s)["random"].action.copy()
    a[:, [0, -1]] = 0.0
    k = sp.OperatorKernel(grid=s.grid, action=a)
    assert _centrosymmetric(a)
    diag = hm.diag.copy()
    diag[-1] += 100.0 * hm.norm_max
    moved = sp.HamiltonianMatrix(grid=hm.grid, diag=diag, offdiag=hm.offdiag)
    assert not moved.palindromic
    t = moved.to_dense()
    c = a @ t - t @ a
    top = np.abs(c[: n - n // 2]).max() / moved.norm_max
    assert dense_commutator(k, moved) > top * (1 + 1e-9)
    assert sp.check_commutator(k, moved) == _matches(dense_commutator(k, moved))


def test_unfolded_alternation_keeps_the_row_block_formula(qc_199):
    # An asymmetric spectrum is one sector with the identity fold: its
    # residuals are those of the whole-row blocks, bit for bit.
    s, u, n = qc_199, qc_199.modes, 199
    hm = sp.assemble(sp.named("quartic_cubic"), s.grid)
    assert not s.folded and not hm.palindromic
    for k in (sp.build_parity(s), sp.build_triparity(s)):
        for w in (sp.GradingWeights.alternating(n), sp.GradingWeights.cube_roots(n)):
            a, wv = k.action, w.values
            parts = [(a.real, wv.real)]
            if np.iscomplexobj(a) or np.iscomplexobj(wv):
                parts.append((a.imag if np.iscomplexobj(a) else None, wv.imag))
            squared = np.zeros(n)
            for rows in _row_blocks(n):
                for part, weights in parts:
                    r = u[rows] * -weights
                    if part is not None:
                        r += part[rows] @ u
                    squared += (r**2).sum(axis=0)
            assert sp.check_alternation(k, s, w) == np.sqrt(squared).max()


def test_centrosymmetry_is_read_from_the_entries(harmonic_199, qc_199):
    assert _centrosymmetric(sp.build_triparity(harmonic_199).action)
    assert not _centrosymmetric(sp.build_triparity(qc_199).action)
    j = sp.reflection_action(harmonic_199.grid).action
    assert _centrosymmetric(j)
    moved = j.copy()
    moved[-1, 1] = 1.0  # one entry in the last row block
    assert not _centrosymmetric(moved)


def test_hermiticity_guard_reads_every_row_block():
    # Hermitian except for one entry in the last row block: the gap is the
    # dense norm, not the 0.0 of an exactly Hermitian kernel.
    n = 80
    rng = np.random.default_rng(29)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = b + b.conj().T
    a[n - 1, n - 3] += 1e-3  # also outside the first block of columns
    dense = np.abs(np.linalg.eigvalsh((a - a.conj().T) / 1j)).max()
    assert dense > 1e-4
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=sp.make_grid(-1, 1, n), action=a))
    assert gap == pytest.approx(dense, abs=1e-12)


def _dense_gap(a):
    return np.abs(np.linalg.eigvalsh((a - a.conj().T) / 1j)).max()


@pytest.mark.parametrize("n", FOLD_SIZES)
def test_block_hermiticity_gap_matches_dense_eigvalsh(n):
    # a centrosymmetric A is taken as its two half-size fold blocks
    _, s = _solved(n)
    for k in _centrosymmetric_kernels(s).values():
        assert sp.spectral_hermiticity_gap(k) == pytest.approx(_dense_gap(k.action), rel=1e-12)


@pytest.mark.parametrize("n", [8, 9])
def test_block_hermiticity_gap_with_an_exactly_hermitian_odd_block(n):
    # Rows with A[i, j] == A[i, n-1-j] make B_o = 0 exactly, so Lanczos must
    # not run on it, while B_e is far from Hermitian.
    m = n // 2
    rng = np.random.default_rng(n)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    middle = rng.standard_normal((m, n - 2 * m)) + 1j * rng.standard_normal((m, n - 2 * m))
    top = np.hstack([x, middle, x[:, ::-1]])
    centre = rng.standard_normal((n - 2 * m, m)) + 1j * rng.standard_normal((n - 2 * m, m))
    centre = np.hstack([centre, rng.standard_normal((n - 2 * m, n - 2 * m)), centre[:, ::-1]])
    a = np.vstack([top, centre, top[::-1, ::-1]])
    assert _centrosymmetric(a)
    assert np.array_equal(a[:m, :m] - a[:m, ::-1][:, :m], np.zeros((m, m)))
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=sp.make_grid(-1, 1, n), action=a))
    assert gap == pytest.approx(_dense_gap(a), rel=1e-12)
    assert gap > 1.0


@pytest.mark.parametrize("n", [8, 9])
def test_block_hermiticity_gap_with_an_exactly_hermitian_even_block(monkeypatch, n):
    # Integer entries with X + Y Hermitian make B_e = X + Y exactly Hermitian,
    # the middle row and column of an odd n too, while B_o = X - Y is not:
    # Lanczos runs once, on B_o.
    m = n // 2
    rng = np.random.default_rng(n)

    def integers(*shape):
        return rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)

    x, g = integers(m, m), integers(m, m)
    y = g + g.conj().T - x
    middle = integers(m, n - 2 * m)
    top = np.hstack([x, middle, y[:, ::-1]])
    centre = middle.conj().T
    centre = np.hstack([centre, rng.integers(-4, 5, (n - 2 * m, n - 2 * m)), centre[:, ::-1]])
    a = np.vstack([top, centre, top[::-1, ::-1]])
    assert _centrosymmetric(a)
    assert np.array_equal(x + y, (x + y).conj().T) and not np.array_equal(x - y, (x - y).conj().T)
    runs = []
    lanczos_norm = verify._lanczos_norm

    def counted(embedded, size):
        runs.append((2 * size, 2 * size))  # the shape of the real embedding
        return lanczos_norm(embedded, size)

    monkeypatch.setattr(verify, "_lanczos_norm", counted)
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=sp.make_grid(-1, 1, n), action=a))
    assert runs == [(2 * m, 2 * m)]
    assert gap == pytest.approx(_dense_gap(a), rel=1e-12)
    assert gap > 1.0


@pytest.mark.parametrize("n", [8, 9, 200])
def test_block_hermiticity_gap_of_a_real_centrosymmetric_kernel(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    a = a + a[::-1, ::-1]
    assert _centrosymmetric(a)
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=sp.make_grid(-1, 1, n), action=a))
    assert gap == pytest.approx(_dense_gap(a), rel=1e-12)


def test_non_centrosymmetric_hermiticity_gap_is_the_whole_matrix_lanczos(harmonic_199):
    # Oracle: one Lanczos run on the real embedding of the whole A, as the
    # gap is computed when A is not its own mirror image, and the dense norm.
    q = sp.build_triparity(harmonic_199)
    moved = _moved(q, (198, 1))
    assert not _centrosymmetric(moved.action)
    for a in (moved.action, moved.action.real):
        n = a.shape[0]

        def embedded(v):
            v = np.ravel(v)
            x, y = v[:n], v[n:]
            if not np.iscomplexobj(a):
                return np.concatenate([a @ y - y @ a, x @ a - a @ x])
            z = x + 1j * y
            az, atz = a @ z, z.conj() @ a
            return np.concatenate([az.imag + atz.imag, atz.real - az.real])

        gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=q.grid, action=a))
        assert gap == verify._lanczos_norm(embedded, n)
        assert gap == pytest.approx(_dense_gap(a), rel=1e-12)


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


def _allocated_arrays(fn, *args, n=BUDGET_N):
    """fn(*args) and the peak it allocates, in n x n float64 arrays.

    A first call runs untraced: first-call allocations (imports, caches)
    are not the function's.
    """
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / (8.0 * n * n)


@pytest.mark.parametrize("name", sorted(BUDGET_CHECKS))
def test_check_allocates_at_most_its_budget(budget_case, name):
    _, arrays = _allocated_arrays(BUDGET_CHECKS[name], *budget_case)
    assert arrays <= BUDGET_ARRAYS, f"{name} allocated {arrays:.2f} n x n arrays"


# A centrosymmetric Q streams its powers in blocks of ceil((n - n//2)/8)
# rows, so its cube's two live products hold 0.25 x 8n^2; blocks of
# ceil(n/8) rows hold 0.50.
CUBE_BUDGET_ARRAYS = 0.3


def test_cube_of_a_centrosymmetric_grading_allocates_at_most_its_budget(budget_case):
    q = budget_case[3]
    assert _centrosymmetric(q.action)
    _, arrays = _allocated_arrays(sp.check_cube, q)
    assert arrays <= CUBE_BUDGET_ARRAYS, f"check_cube allocated {arrays:.2f} n x n arrays"


# The gap of a centrosymmetric Q holds one fold block's Hermitian difference
# as lower-triangle panels, about 0.56 h^2 complex entries (0.28 x 8n^2),
# and a few rows of the block at a time; an h x h complex block buffer holds
# 0.50 x 8n^2. At a small n the Lanczos vectors are a larger share, so the
# budget is read at a large one.
GAP_N = 1599
GAP_BUDGET_ARRAYS = 0.4


def test_hermiticity_gap_of_a_centrosymmetric_grading_allocates_at_most_its_budget():
    _, s = _solved(GAP_N)
    q = sp.build_triparity(s)
    assert _centrosymmetric(q.action)
    gap, arrays = _allocated_arrays(sp.spectral_hermiticity_gap, q, n=GAP_N)
    assert gap == pytest.approx(np.sqrt(3.0), abs=1e-10)
    assert arrays <= GAP_BUDGET_ARRAYS, f"spectral_hermiticity_gap allocated {arrays:.2f} n x n arrays"


# The triparity build holds its complex action (2 x 8n^2) and one row
# block's scaled modes and product for each part; building the whole real
# product and its complex copy would cost 4 x 8n^2.
BUILD_BUDGET_ARRAYS = 2.5


def test_triparity_build_allocates_at_most_its_budget(budget_case):
    _, arrays = _allocated_arrays(sp.build_triparity, budget_case[1])
    assert arrays <= BUILD_BUDGET_ARRAYS, f"build_triparity allocated {arrays:.2f} n x n arrays"


# The suite keeps one grading operator alive at a time and never forms the
# reconstruction: its peak is the triparity stage, the complex Q (2 x 8n^2)
# written one row block at a time, plus the streamed checks on Q. A whole
# product in the triparity build, P held through it, or a whole
# reconstruction each cost at least one more n x n array.
SUITE_BUDGET_ARRAYS = 3.0


@pytest.mark.parametrize("name, x_max", [("harmonic", 8), ("quartic_cubic", 10)])
def test_suite_allocates_at_most_its_budget(name, x_max):
    v, grid = sp.named(name), sp.make_grid(-x_max, x_max, BUDGET_N)
    s = sp.solve(sp.assemble(v, grid))
    report, arrays = _allocated_arrays(lambda: sp.run_suite(v, grid, spectrum=s))
    assert report.passed
    assert arrays <= SUITE_BUDGET_ARRAYS, f"run_suite allocated {arrays:.2f} n x n arrays"


# A sweep reduces each spectrum to its row before it solves the next grid,
# and builds a parity operator only for a column that reads it, so its peak
# is the largest grid's U and at most P and P_m (an uneven V with --truncate).
# Holding every spectrum until the last solve adds the smaller grids' U
# (0.69 x 8n^2 here) and the parity operators built beside them.
SWEEP_N = 349
SWEEP_BUDGET_ARRAYS = 3.5


def test_sweep_allocates_at_most_its_budget(tmp_path):
    cases = (
        ("harmonic", "8", ["--truncate", "40"]),
        ("quartic_cubic", "10", []),
        ("quartic_cubic", "10", ["--truncate", "40"]),  # P and P_40 both live, beside U
    )
    for name, x_max, truncate in cases:
        for jobs in ("1", "2"):
            argv = ["sweep", "--potential", name, "--xmin", f"-{x_max}", "--xmax", x_max,
                    "--sweep-n", f"149,249,{SWEEP_N}", *truncate, "--jobs", jobs, "--out", str(tmp_path)]
            code, arrays = _allocated_arrays(main, argv, n=SWEEP_N)
            assert code == 0
            assert arrays <= SWEEP_BUDGET_ARRAYS, f"{argv} allocated {arrays:.2f} n x n arrays"


@pytest.mark.parametrize("n", [4, 5, 199])
@pytest.mark.parametrize("name, x_max", [("harmonic", 8), ("quartic_cubic", 10)])
def test_solve_returns_column_major_modes(name, x_max, n):
    # both solve paths: stemr's U as it is, and the unfolded blocks of a palindromic T
    s = sp.solve(sp.assemble(sp.named(name), sp.make_grid(-x_max, x_max, n)))
    assert s.folded == (name == "harmonic")
    assert s.modes.flags.f_contiguous


@pytest.mark.parametrize("n", [199, 200])
def test_folded_sectors_are_views_of_the_modes(n, qc_199):
    _, s = _solved(n)
    h = n - n // 2
    for m in sorted({n, n // 2 + 1}):
        (even, odd), arrays = _allocated_arrays(_sectors, s, s.modes[:, :m], n=n)
        # two view objects and no data: a copy of the even sector alone is 8 * h * ceil(m/2) bytes
        assert arrays * 8.0 * n * n < 1024
        for sector, first in ((even, 0), (odd, 1)):
            assert np.shares_memory(sector, s.modes)
            assert sector.strides[0] == s.modes.itemsize  # unit row stride: BLAS takes it as it is
            assert np.array_equal(sector, s.modes[:h, first:m:2])
    (whole,) = _sectors(qc_199, qc_199.modes)
    assert whole is qc_199.modes


@pytest.mark.parametrize("n", [199, 200])
def test_checks_do_not_depend_on_the_layout_of_the_modes(n):
    # a row-major copy of a folded spectrum goes through the same sector code,
    # whose sectors BLAS then takes through copies
    hm, s = _solved(n)
    rows = dataclasses.replace(s, modes=np.ascontiguousarray(s.modes))
    assert rows.folded and rows.modes.flags.c_contiguous and not rows.modes.flags.f_contiguous
    p, q = sp.build_parity(s), sp.build_triparity(s)
    cube = sp.GradingWeights.cube_roots(n)
    checks = (
        sp.check_completeness,
        lambda x: sp.check_orthonormality(x, n),
        lambda x: _reconstruction_defect(x, hm),
        lambda x: sp.check_alternation(p, x),
        lambda x: sp.check_alternation(q, x, cube),
    )
    for check in checks:
        assert check(rows) == pytest.approx(check(s), rel=1e-12)
    assert np.abs(sp.build_triparity(rows).action - q.action).max() <= 1e-15
