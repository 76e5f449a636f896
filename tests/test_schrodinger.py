import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import specparity as sp
from specparity import schrodinger

from conftest import solve_potential


def ground_energy_bisection(pot, x_min, x_max, n):
    """Independent oracle: bisection eigenvalues of the same tridiagonal bands."""
    grid = sp.make_grid(x_min, x_max, n)
    hm = sp.assemble(pot, grid)
    vals = scipy.linalg.eigvalsh_tridiagonal(
        hm.diag, hm.offdiag, select="i", select_range=(0, 0), lapack_driver="stebz"
    )
    return float(vals[0])


def test_assemble_free_particle_bands(box_2x2):
    hm, _ = box_2x2
    np.testing.assert_allclose(hm.diag, [18.0, 18.0], rtol=1e-14)
    np.testing.assert_allclose(hm.offdiag, [-9.0], rtol=1e-14)


def test_assemble_harmonic_bands():
    grid = sp.make_grid(-8, 8, 799)
    hm = sp.assemble(sp.named("harmonic"), grid)
    inv_h2 = 1.0 / grid.h**2
    np.testing.assert_allclose(hm.diag, 2.0 * inv_h2 + grid.points**2, rtol=1e-15)
    assert np.all(hm.offdiag == -inv_h2)
    assert np.all(hm.offdiag < 0)


def test_assemble_quartic_cubic_bands():
    grid = sp.make_grid(-10, 10, 999)
    hm = sp.assemble(sp.named("quartic_cubic"), grid)
    x = grid.points
    np.testing.assert_allclose(hm.diag, 2.0 / grid.h**2 + x**4 + x**3, rtol=1e-14)


def test_assemble_rejects_bad_samples():
    grid = sp.make_grid(-1, 1, 4)
    with pytest.raises(sp.GridMismatchError):
        sp.assemble_from_samples(np.zeros(5), grid)
    with pytest.raises(ValueError):
        sp.assemble_from_samples(np.array([0.0, np.nan, 0.0, 0.0]), grid)


@pytest.mark.parametrize("potential", [sp.polynomial([0] * 8 + [1]), sp.named("harmonic")])
def test_an_overflowing_potential_is_refused_whatever_the_error_state(potential):
    # both overflow on [-1e200, 1e200]: x**2 does past |x| = 1.3e154
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="potential samples must be finite"):
            sp.assemble(potential, sp.make_grid(-1e200, 1e200, 9))


def test_a_diagonal_that_overflows_is_refused_whatever_the_error_state():
    # 2/h**2 is about 8.9e307 and every sample about 1.5e308: each is finite, their sum is not
    grid = sp.make_grid(-7.5e-153, 7.5e-153, 99)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="diagonal 2/h\\*\\*2 \\+ V of T is not finite"):
            sp.assemble(sp.polynomial([1.5e308, 0, 1]), grid)


def test_matvec_matches_dense(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(hm.n)
    np.testing.assert_allclose(hm.matvec(f), hm.to_dense() @ f, rtol=1e-13, atol=1e-10)


def test_harmonic_energies_match_analytic(harmonic_799):
    # stencil error grows ~ h^2 (2k+1)^2, so the 1e-3 tolerance is per level
    expected = 2.0 * np.arange(8) + 1.0
    rel = np.abs(harmonic_799.energies[:8] - expected) / expected
    assert rel.max() <= 1e-3
    assert abs(harmonic_799.energies[0] - 1.0) <= 1e-3


def test_quartic_ground_energy_against_richardson_oracle():
    pot = sp.named("quartic")
    # Oracle first: bisection ground energies at two finer spacings, then
    # h^2 Richardson extrapolation. Frozen continuum value 1.0603620906
    # (the extrapolated result; coarse-grid error is O(h^2) ~ 1.2e-5).
    e_fine = ground_energy_bisection(pot, -8, 8, 6399)
    e_finer = ground_energy_bisection(pot, -8, 8, 12799)
    oracle = (4.0 * e_finer - e_fine) / 3.0
    assert oracle == pytest.approx(1.0603620906, abs=1e-7)
    spectrum = solve_potential(pot, -8, 8, 1599)
    assert abs(spectrum.energies[0] - oracle) <= 1.3e-5


def test_quartic_cubic_ground_energy_against_dense_oracle():
    spectrum = solve_potential(sp.named("quartic_cubic"), -10, 10, 1599)
    hm = sp.assemble(sp.named("quartic_cubic"), spectrum.grid)
    dense = np.linalg.eigvalsh(hm.to_dense())
    assert abs(spectrum.energies[0] - dense[0]) <= 1e-9


def test_spectrum_invariants(harmonic_999):
    s = harmonic_999
    assert np.all(np.diff(s.energies) >= 0)
    # Euclidean and quadrature Gram deviations
    block = s.modes[:, :25]
    assert np.abs(block.T @ block - np.eye(25)).max() <= 1e-11
    assert sp.check_orthonormality(s, 25) <= 1e-11
    # sign convention: first significant entry positive
    thresh = 1e-8 * np.abs(s.modes).max(axis=0)
    for k in range(s.n_modes):
        col = s.modes[:, k]
        first = np.nonzero(np.abs(col) > thresh[k])[0][0]
        assert col[first] > 0


def test_phi_is_derived_not_stored(harmonic_199):
    assert "phi" not in {f.name for f in dataclasses.fields(sp.Spectrum)}
    assert not hasattr(sp.Spectrum, "phi")
    s = harmonic_199
    phi = s.modes / np.sqrt(s.grid.h)
    assert np.abs(s.grid.h * (phi.T @ phi) - np.eye(s.n_modes)).max() <= 1e-11
    assert sp.check_orthonormality(s, s.n_modes) <= 1e-11


def test_bound_state_gaps_are_simple(harmonic_999, qc_999):
    # strictly positive gaps throughout the resolved bound-state window
    h = harmonic_999
    bound = h.energies < 64.0  # V at the domain edge
    assert np.all(np.diff(h.energies[bound]) > 0)
    # no reflection symmetry: the whole spectrum must be simple
    assert np.all(np.diff(qc_999.energies) > 0)


def test_orthonormality_examples(harmonic_199):
    assert sp.check_orthonormality(harmonic_199, 10) <= 1e-11
    assert sp.check_orthonormality(harmonic_199, 1) <= 1e-12
    assert sp.check_orthonormality(harmonic_199, 2) <= 1e-12
    assert sp.check_orthonormality(harmonic_199, harmonic_199.n_modes) <= 1e-11


def test_orthonormality_full_rank_against_dense_oracle():
    grid = sp.make_grid(-6, 6, 80)
    hm = sp.assemble(sp.named("harmonic"), grid)
    spectrum = sp.solve(hm)
    assert sp.check_orthonormality(spectrum, 80) <= 1e-10
    # independent dense decomposition obeys the same bound
    _, vecs = np.linalg.eigh(hm.to_dense())
    assert np.abs(vecs.T @ vecs - np.eye(80)).max() <= 1e-10


def test_orthonormality_rank_validation(harmonic_199):
    with pytest.raises(ValueError):
        sp.check_orthonormality(harmonic_199, 0)
    with pytest.raises(ValueError):
        sp.check_orthonormality(harmonic_199, 200)


def test_completeness_examples(harmonic_199, qc_199):
    assert sp.check_completeness(harmonic_199) <= 1e-10
    assert sp.check_completeness(qc_199) <= 1e-10


def test_completeness_detects_a_deleted_mode(harmonic_199):
    s = harmonic_199
    modes = s.modes.copy()
    u0 = modes[:, 0].copy()
    modes[:, 0] = 0.0
    broken = dataclasses.replace(s, modes=modes)
    deviation = sp.check_completeness(broken)
    assert deviation == pytest.approx(np.max(u0**2), rel=1e-6)
    assert deviation > 1e-4


def test_completeness_requires_full_spectrum(harmonic_199):
    s = harmonic_199
    partial = dataclasses.replace(s, modes=s.modes[:, :-1])
    with pytest.raises(sp.TruncatedSpectrumError):
        sp.check_completeness(partial)


def test_count_nodes_low_modes(harmonic_199):
    assert sp.count_nodes(harmonic_199, 0) == 0
    assert sp.count_nodes(harmonic_199, 1) == 1


def test_count_nodes_mode_25_against_dense_oracle():
    grid = sp.make_grid(-8, 8, 301)
    hm = sp.assemble(sp.named("harmonic"), grid)
    spectrum = sp.solve(hm)
    assert sp.count_nodes(spectrum, 25) == 25
    # independent dense solve, direct sign scan
    _, vecs = np.linalg.eigh(hm.to_dense())
    u = vecs[:, 25]
    sig = u[np.abs(u) > 1e-9 * np.abs(u).max()]
    assert int(np.sum(sig[:-1] * sig[1:] < 0)) == 25


def test_count_nodes_out_of_range(harmonic_199):
    with pytest.raises(IndexError):
        sp.count_nodes(harmonic_199, 199)


def test_oscillation_theorem_window(harmonic_199, qc_199):
    for s in (harmonic_199, qc_199):
        for k in range(51):
            assert sp.count_nodes(s, k) == k


def test_second_order_convergence_of_ground_energy():
    errs = [
        abs(ground_energy_bisection(sp.named("harmonic"), -8, 8, n) - 1.0)
        for n in (199, 399, 799)
    ]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_rayleigh_quotient_consistency(harmonic_199, qc_199):
    for s in (harmonic_199, qc_199):
        hm = sp.assemble(
            sp.named("harmonic") if s is harmonic_199 else sp.named("quartic_cubic"),
            s.grid,
        )
        for k in range(21):
            phi = s.modes[:, k] / np.sqrt(s.grid.h)
            rq = (s.grid.h * np.vdot(phi, hm.matvec(phi))).real
            assert abs(rq - s.energies[k]) <= 1e-9 * (1 + abs(s.energies[k]))


def test_solve_is_deterministic():
    a = solve_potential(sp.named("quartic_cubic"), -10, 10, 199)
    b = solve_potential(sp.named("quartic_cubic"), -10, 10, 199)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.modes, b.modes)


def test_even_double_well_resolves_degenerate_pairs():
    # splittings collapse below machine precision, yet the reflection
    # symmetry pins every parity
    dw = sp.polynomial([625.0, 0.0, -50.0, 0.0, 1.0])  # (x^2 - 25)^2
    spectrum = solve_potential(dw, -8, 8, 399)
    assert np.diff(spectrum.energies)[0] <= 1e-8  # tunneling pair
    parity = sp.build_parity(spectrum)
    assert np.abs(parity.action - np.eye(399)[::-1]).max() <= 1e-10
    for k in range(31):
        assert sp.count_nodes(spectrum, k) == k


def test_tilted_double_well_raises_degeneracy_error():
    grid = sp.make_grid(-8, 8, 399)
    x = grid.points
    x2 = x * x
    tilted = (x2 - 25.0) ** 2 + 1e-9 * x  # breaks reflection, keeps the pairs
    hm = sp.assemble_from_samples(tilted, grid)
    with pytest.raises(sp.DegenerateSpectrumError):
        sp.solve(hm)


def test_spectrum_arrays_are_read_only(harmonic_199):
    with pytest.raises(ValueError):
        harmonic_199.modes[0, 0] = 1.0
    with pytest.raises(ValueError):
        harmonic_199.energies[0] = 0.0


DOUBLE_WELL = sp.polynomial([625.0, 0.0, -50.0, 0.0, 1.0])  # (x^2 - 25)^2


@pytest.fixture
def stemr_values(monkeypatch):
    """Eigenvalues returned by each scipy.linalg.eigh_tridiagonal call that solve makes."""
    calls = []
    original = scipy.linalg.eigh_tridiagonal

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result[0].copy())
        return result

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    return calls


@pytest.mark.parametrize("pot", [sp.named("harmonic"), DOUBLE_WELL], ids=["harmonic", "double_well"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 199, 200])
def test_folded_solve_matches_dense_and_is_exactly_symmetric(pot, n, stemr_values):
    hm = sp.assemble(pot, sp.make_grid(-8, 8, n))
    s = sp.solve(hm)
    assert len(stemr_values) == 2  # the even and the odd block
    dense = hm.to_dense()
    oracle = np.linalg.eigvalsh(dense)
    norm = np.abs(oracle).max()
    assert np.abs(s.energies - oracle).max() <= 1e-13 * norm
    assert np.abs(dense @ s.modes - s.modes * s.energies).max() <= 1e-12 * norm
    assert np.array_equal(s.modes[::-1], s.modes * (-1.0) ** np.arange(n))


@pytest.mark.parametrize("n", [399, 400])
def test_folded_energies_ascend_inside_tunneling_pairs(n, stemr_values):
    s = solve_potential(DOUBLE_WELL, -8, 8, n)
    even, odd = stemr_values
    alternating = np.empty(n)
    alternating[0::2], alternating[1::2] = even, odd
    assert np.any(np.diff(alternating) < 0)  # sub-rounding pairs come back inverted
    assert np.all(np.diff(s.energies) >= 0)
    assert np.array_equal(np.sort(alternating), s.energies)


def test_folded_solve_raises_when_blocks_do_not_alternate(monkeypatch):
    original = scipy.linalg.eigh_tridiagonal
    calls = []

    def shifted(*args, **kwargs):
        values, vectors = original(*args, **kwargs)
        calls.append(values)
        return (values + 3.0 if len(calls) == 2 else values), vectors  # odd block up past E_2

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", shifted)
    hm = sp.assemble(sp.named("harmonic"), sp.make_grid(-8, 8, 199))
    with pytest.raises(sp.DegenerateSpectrumError, match="alternation"):
        sp.solve(hm)


def test_solve_calls_eigh_tridiagonal_by_attribute(stemr_values):
    # bench/spans.py times the solve by wrapping this attribute
    solve_potential(sp.named("harmonic"), -8, 8, 199)
    assert len(stemr_values) == 2
    solve_potential(sp.named("quartic_cubic"), -10, 10, 199)
    assert len(stemr_values) == 3
    from specparity.schrodinger import DEGENERACY_RTOL

    assert DEGENERACY_RTOL > 0


def _fix_signs_reference(modes):
    n = modes.shape[1]
    thresh = 1e-8 * np.abs(modes).max(axis=0)
    first = (np.abs(modes) > thresh[np.newaxis, :]).argmax(axis=0)
    signs = np.sign(modes[first, np.arange(n)])
    signs[signs == 0] = 1.0
    return modes * signs


@pytest.mark.parametrize("case", ["folded", "asymmetric"])
def test_fix_signs_in_place_is_bitwise_the_whole_array_formula(case):
    if case == "folded":
        hm = sp.assemble(DOUBLE_WELL, sp.make_grid(-8, 8, 399))
        _, raw = schrodinger._solve_folded(hm)
    else:
        hm = sp.assemble(sp.named("quartic_cubic"), sp.make_grid(-10, 10, 199))
        _, raw = schrodinger._eigh_tridiagonal(hm.diag, hm.offdiag)
    raw = raw * np.where(np.arange(hm.n) % 3, 1.0, -1.0)  # some columns start negative
    raw[:, 0] = 0.0  # no significant entry at all
    raw[:, 1] = 0.0
    raw[-1, 1] = -1.0  # first significant entry in the last row block
    expected = _fix_signs_reference(raw)
    schrodinger._fix_signs(raw)
    assert raw.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["harmonic", "quartic_cubic"])
def test_solve_allocates_modes_plus_one_block(name):
    # the folded solve holds U and one half-size block's vectors (1.25 x 8n^2);
    # the asymmetric one holds U and one row block of _fix_signs' search
    n = 400
    hm = sp.assemble(sp.named(name), sp.make_grid(-8, 8, n))
    sp.solve(hm)  # first-call allocations (imports, caches) are not the solve's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sp.solve(hm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - base) / (8.0 * n * n)
    assert arrays <= 1.4, f"solve allocated {arrays:.2f} n x n arrays"


def _dense_fold(n):
    """The orthogonal fold F, written entry by entry: the even columns (e_j + e_{n-1-j})/sqrt2
    for j < n//2 and e_m for an odd n, then the odd columns (e_j - e_{n-1-j})/sqrt2."""
    m, eye = n // 2, np.eye(n)
    even = [(eye[j] + eye[n - 1 - j]) / np.sqrt(2.0) for j in range(m)] + [eye[m]] * (n % 2)
    odd = [(eye[j] - eye[n - 1 - j]) / np.sqrt(2.0) for j in range(m)]
    return np.array(even + odd).T


@pytest.mark.parametrize("n", [4, 5, 199, 200])
def test_fold_bands_of_a_palindromic_t_are_the_blocks_of_the_dense_fold(n):
    rng = np.random.default_rng(n)
    d, e = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, -1.0, n - 1)
    hm = schrodinger.HamiltonianMatrix(grid=sp.make_grid(-1, 1, n), diag=d + d[::-1], offdiag=e + e[::-1])
    assert hm.palindromic
    blocks = schrodinger.fold_bands(hm)
    assert [(cols, sign) for _, _, cols, sign in blocks] == [(slice(0, None, 2), 1.0), (slice(1, None, 2), -1.0)]
    assert [len(diag) for diag, _, _, _ in blocks] == [n - n // 2, n // 2]
    direct_sum = scipy.linalg.block_diag(
        *(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1) for diag, offdiag, _, _ in blocks)
    )
    fold = _dense_fold(n)
    dense = fold.T @ hm.to_dense() @ fold
    assert np.abs(direct_sum - dense).max() <= 4 * np.finfo(float).eps * hm.norm_max


def test_fold_bands_of_a_t_without_mirror_symmetry_are_its_own_bands():
    hm = sp.assemble(sp.named("quartic_cubic"), sp.make_grid(-10, 10, 199))
    ((diag, offdiag, cols, sign),) = schrodinger.fold_bands(hm)
    assert diag is hm.diag and offdiag is hm.offdiag
    assert cols == slice(None) and sign == 1.0


def test_count_nodes_reads_signs_whose_product_underflows():
    grid = sp.make_grid(-1, 1, 4)
    modes = np.eye(4)
    modes[:, 1] = [0.0, 1e-200, -1e-200, 0.0]  # 1e-200 * -1e-200 underflows to -0.0
    s = sp.Spectrum(grid=grid, energies=np.arange(4.0), modes=modes)
    assert sp.count_nodes(s, 1) == 1
    assert sp.count_nodes(s, 0) == 0


def test_the_degeneracy_guard_reads_each_gap_on_its_own_scale():
    # a gap of 1e-9 at E = 1 is simple, whatever the largest |E| (1e12 here)
    schrodinger._check_simple(np.array([1.0, 1.0 + 1e-9, 1e12]), 1e12)
    with pytest.raises(sp.DegenerateSpectrumError, match="between modes 0 and 1"):
        schrodinger._check_simple(np.array([1.0, 1.0 + 1e-11, 5.0]), 5.0)
    # near E = 0 the guard does not fall below DEGENERACY_RTOL * eps * ||T||_max
    with pytest.raises(sp.DegenerateSpectrumError, match="between modes 0 and 1"):
        schrodinger._check_simple(np.array([-1e-30, 1e-30, 1.0]), 1.0)
