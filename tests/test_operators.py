import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import specparity as sp

from conftest import solve_potential


def test_parity_reduces_to_reflection_for_harmonic(harmonic_799):
    parity = sp.build_parity(harmonic_799)
    j = sp.reflection_action(harmonic_799.grid)
    assert np.abs(parity.action - j.action).max() <= 1e-8
    assert parity.action.dtype == np.float64


def test_parity_trace_counts_the_grading():
    odd = solve_potential(sp.named("harmonic"), -8, 8, 199)
    even = solve_potential(sp.named("harmonic"), -8, 8, 200)
    assert np.trace(sp.build_parity(odd).action) == pytest.approx(1.0, abs=1e-9)
    assert np.trace(sp.build_parity(even).action) == pytest.approx(0.0, abs=1e-9)


def test_parity_eigenvector_action(qc_199):
    parity = sp.build_parity(qc_199)
    u3 = qc_199.modes[:, 3]
    assert np.linalg.norm(parity.action @ u3 + u3) <= 1e-10


def test_parity_requires_full_spectrum(qc_199):
    partial = dataclasses.replace(qc_199, modes=qc_199.modes[:, :100])
    with pytest.raises(sp.TruncatedSpectrumError):
        sp.build_parity(partial)


def test_parity_is_invariant_under_mode_sign_flips(qc_199):
    flipped = qc_199.modes.copy()
    flipped[:, [0, 3, 17, 101]] *= -1.0
    other = dataclasses.replace(qc_199, modes=flipped)
    a = sp.build_parity(qc_199).action
    b = sp.build_parity(other).action
    assert np.abs(a - b).max() <= 1e-12


def test_triparity_cube_and_branches(qc_199):
    for branch in (+1, -1):
        q = sp.build_triparity(qc_199, branch)
        assert sp.check_cube(q) <= 1e-10
        assert q.action.dtype == np.complex128


def test_triparity_eigenvalue_wraps_mod_three(qc_199):
    q = sp.build_triparity(qc_199)
    omega = np.exp(2j * np.pi / 3)
    u4 = qc_199.modes[:, 4]
    assert np.linalg.norm(q.action @ u4 - omega * u4) <= 1e-10


def test_triparity_nonhermiticity_gap_is_sqrt3(qc_199, box_2x2):
    _, tiny = box_2x2  # two modes suffice
    for s in (qc_199, tiny):
        for branch in (+1, -1):
            q = sp.build_triparity(s, branch)
            assert sp.spectral_hermiticity_gap(q) == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_adjoint_properties(qc_199):
    parity = sp.build_parity(qc_199)
    q = sp.build_triparity(qc_199)
    assert np.abs(parity.action.conj().T - parity.action).max() <= 1e-12
    assert np.abs(q.action.conj().T - q.action).max() > 0.1  # Q is not its own adjoint
    gap = sp.spectral_hermiticity_gap(q)
    assert gap == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_triparity_matches_complex_times_real_product(qc_199):
    u = qc_199.modes
    for branch in (+1, -1):
        w = sp.GradingWeights.cube_roots(199, branch).values
        oracle = (u * w) @ u.T  # complex @ real, as one complex GEMM
        assert np.abs(sp.build_triparity(qc_199, branch).action - oracle).max() <= 1e-14


def test_triparity_rejects_bad_branch(qc_199):
    with pytest.raises(sp.NonUnimodularWeightError):
        sp.build_triparity(qc_199, branch=2)


def test_graded_identity_weights(qc_199):
    ident = sp.build_graded(qc_199, sp.GradingWeights(np.ones(199)))
    assert np.abs(ident.action - np.eye(199)).max() <= 1e-10
    rng = np.random.default_rng(2)
    f = rng.standard_normal(199)
    assert np.abs(ident.action @ f - f).max() <= 1e-12


def test_graded_alternating_equals_parity_exactly(qc_199):
    graded = sp.build_graded(qc_199, sp.GradingWeights.alternating(199))
    parity = sp.build_parity(qc_199)
    assert np.array_equal(graded.action, parity.action)


def test_graded_evolution_weights_are_unitary(qc_199):
    w = sp.GradingWeights(np.exp(-1j * qc_199.energies * 0.5))
    u = sp.build_graded(qc_199, w)
    product = u.action.conj().T @ u.action
    assert np.abs(product - np.eye(199)).max() <= 1e-10


def test_graded_rejects_non_unimodular(qc_199):
    with pytest.raises(sp.NonUnimodularWeightError):
        sp.build_graded(qc_199, 0.5 * np.ones(199))
    with pytest.raises(sp.NonUnimodularWeightError):
        sp.GradingWeights(np.zeros(3))
    with pytest.raises(sp.NonUnimodularWeightError):
        sp.build_graded(qc_199, np.ones(100))  # wrong length


def test_grading_weights_compose_multiplicatively(qc_199):
    rng = np.random.default_rng(9)
    w1 = sp.GradingWeights(np.exp(1j * rng.uniform(0, 2 * np.pi, 199)))
    w2 = sp.GradingWeights(np.exp(1j * rng.uniform(0, 2 * np.pi, 199)))
    lhs = sp.build_graded(qc_199, w1).action @ sp.build_graded(qc_199, w2).action
    rhs = sp.build_graded(qc_199, sp.GradingWeights(w1.values * w2.values))
    assert np.abs(lhs - rhs.action).max() <= 1e-10


def test_every_grading_commutes_with_the_hamiltonian(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    rng = np.random.default_rng(21)
    for _ in range(3):
        w = sp.GradingWeights(np.exp(1j * rng.uniform(0, 2 * np.pi, 199)))
        g = sp.build_graded(qc_199, w)
        t = hm.to_dense()
        resid = np.abs(g.action @ t - t @ g.action).max()
        assert resid <= 1e-9 * hm.norm_max


def test_truncated_parity_squares_to_the_projector(qc_199):
    m = 60
    trunc = sp.build_parity(qc_199, truncate=m)
    assert trunc.truncated
    block = qc_199.modes[:, :m]
    projector = block @ block.T
    square = trunc.action @ trunc.action
    assert np.abs(square - projector).max() <= 1e-10


def test_reconstruction_matches_assembled_matrix(harmonic_199, qc_199):
    for s, name in ((harmonic_199, "harmonic"), (qc_199, "quartic_cubic")):
        hm = sp.assemble(sp.named(name), s.grid)
        recon = sp.reconstruct_hamiltonian(s)
        assert np.abs(recon.action - hm.to_dense()).max() <= 1e-8 * hm.norm_max


def test_matvec_on_a_block_matches_dense(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    rng = np.random.default_rng(31)
    real_block = rng.standard_normal((199, 7))
    complex_block = real_block + 1j * rng.standard_normal((199, 7))
    for block in (real_block, complex_block, complex_block.T.copy().T):
        np.testing.assert_allclose(
            hm.matvec(block), hm.to_dense() @ block, rtol=1e-13, atol=1e-10
        )
    # columns of a block go through exactly the vector path
    assert np.array_equal(hm.matvec(real_block)[:, 3], hm.matvec(real_block[:, 3]))
    with pytest.raises(sp.GridMismatchError):
        hm.matvec(np.ones((198, 7)))
    with pytest.raises(sp.GridMismatchError):
        hm.matvec(np.ones((199, 7, 2)))


def test_band_subtraction_matches_dense(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    recon = sp.reconstruct_hamiltonian(qc_199).action
    dense = recon - hm.to_dense()
    whole = recon.copy()
    assert hm.subtract_from(whole) is whole  # overwritten in place
    assert np.array_equal(whole, dense)
    assert np.array_equal(hm.subtract_from(hm.to_dense()), np.zeros((199, 199)))
    # row blocks, including single rows at both ends and blocks whose edges
    # cut the off-diagonals of T
    for start, stop in ((0, 1), (0, 25), (25, 50), (97, 98), (120, 198), (198, 199)):
        block = recon[start:stop].copy()
        assert np.array_equal(hm.subtract_from(block, start), dense[start:stop])
    with pytest.raises(sp.GridMismatchError):
        hm.subtract_from(recon[:, :198].copy())
    with pytest.raises(sp.GridMismatchError):
        hm.subtract_from(recon[:10].copy(), 190)  # runs past the last row
    with pytest.raises(sp.GridMismatchError):
        hm.subtract_from(recon[0].copy())


def test_reconstruction_of_hand_solved_2x2(box_2x2):
    hm, s = box_2x2
    # eigenpairs of [[18,-9],[-9,18]] by hand: 9 with (1,1)/sqrt2, 27 with (1,-1)/sqrt2
    np.testing.assert_allclose(s.energies, [9.0, 27.0], atol=1e-12)
    recon = sp.reconstruct_hamiltonian(s)
    assert np.abs(recon.action - np.array([[18.0, -9.0], [-9.0, 18.0]])).max() <= 1e-12


def test_apply_grading_to_lowest_modes(qc_199):
    parity = sp.build_parity(qc_199)
    u0, u1 = qc_199.modes[:, 0], qc_199.modes[:, 1]
    assert np.linalg.norm(parity.action @ u0 - u0) <= 1e-10
    assert np.linalg.norm(parity.action @ u1 + u1) <= 1e-10


def test_grid_mismatch_is_rejected(qc_199, harmonic_199):
    p_qc = sp.build_parity(qc_199)
    p_h = sp.build_parity(harmonic_199)
    with pytest.raises(sp.GridMismatchError):
        sp.check_commutator(p_qc, sp.assemble(sp.named("harmonic"), harmonic_199.grid))
    with pytest.raises(sp.GridMismatchError):
        sp.check_alternation(p_h, qc_199)


def test_operator_kernel_rejects_non_finite(qc_199):
    bad = np.full((199, 199), np.nan)
    with pytest.raises(ValueError):
        sp.OperatorKernel(grid=qc_199.grid, action=bad)


def test_kernel_dump_round_trip(tmp_path, box_2x2):
    _, s = box_2x2
    parity = sp.build_parity(s)
    csv_path = tmp_path / "kernel_P.csv"
    txt_path = tmp_path / "kernel_P.txt"
    sp.write_kernel_csv(parity, csv_path)
    sp.write_kernel_txt(parity, txt_path)
    lines = csv_path.read_text().strip().splitlines()
    header = np.array([float(tok) for tok in lines[0].split(",")])
    np.testing.assert_array_equal(header, s.grid.points)
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows, parity.kernel)
    txt = np.array(
        [[float(tok) for tok in line.split()] for line in txt_path.read_text().splitlines()]
    )
    np.testing.assert_array_equal(txt, parity.kernel)


def test_complex_kernel_dump_round_trip(tmp_path, box_2x2):
    _, s = box_2x2
    q = sp.build_triparity(s)
    path = tmp_path / "kernel_Q.csv"
    sp.write_kernel_csv(q, path)
    lines = path.read_text().strip().splitlines()
    rows = np.array([[complex(tok) for tok in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows, q.kernel)


def _oracle_17g(x) -> str:
    return format(float(x), ".17g")


def _oracle_cell(z) -> str:
    if isinstance(z, complex):
        sign = "+" if z.imag >= 0 else "-"  # -0.0 >= 0, so -0.0j writes as +0j
        return _oracle_17g(z.real) + sign + _oracle_17g(abs(z.imag)) + "j"
    return _oracle_17g(z)


def _oracle_lines(table, sep):
    return "".join(sep.join(_oracle_cell(z) for z in row) + "\n" for row in table.tolist())


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 1e17, -1e17, 0.1, -2.5, 1.0 / 3.0]


def _edge_kernels():
    grid = sp.make_grid(0, 13, 12)  # h = 1 exactly, so the kernel equals the action
    assert grid.h == 1.0
    vals = np.array(EDGE_VALUES)
    real = np.array([np.roll(vals, k) for k in range(12)])
    cplx = real + 1j * real[::-1]
    cplx[0, :3] = [complex(1.0, -0.0), complex(-0.0, -0.0), complex(2.0, -5e-324)]
    return [sp.OperatorKernel(grid=grid, action=real), sp.OperatorKernel(grid=grid, action=cplx)]


@pytest.mark.parametrize("which", ["real", "complex", "parity", "triparity"])
def test_kernel_writers_match_the_17g_oracle_byte_for_byte(tmp_path, qc_199, which):
    kernels = {
        "real": _edge_kernels()[0],
        "complex": _edge_kernels()[1],
        "parity": sp.build_parity(qc_199),
        "triparity": sp.build_triparity(qc_199),
    }
    k = kernels[which]
    sp.write_kernel_csv(k, tmp_path / "k.csv")
    sp.write_kernel_txt(k, tmp_path / "k.txt")
    sp.write_kernel(k, tmp_path / "one.csv", tmp_path / "one.txt")  # both from one pass
    header = ",".join(_oracle_17g(x) for x in k.grid.points) + "\n"
    for csv, txt in (("k.csv", "k.txt"), ("one.csv", "one.txt")):
        assert (tmp_path / csv).read_bytes() == (header + _oracle_lines(k.kernel, ",")).encode()
        assert (tmp_path / txt).read_bytes() == _oracle_lines(k.kernel, " ").encode()


@pytest.mark.parametrize("which", ["parity", "triparity"])
def test_kernel_writers_without_x87_long_double_match_the_17g_oracle(tmp_path, qc_199, monkeypatch, which):
    from specparity import serial

    k = sp.build_parity(qc_199) if which == "parity" else sp.build_triparity(qc_199)
    sp.write_kernel(k, tmp_path / "x87.csv", tmp_path / "x87.txt")
    calls = []
    monkeypatch.setattr(serial, "_LONG_DOUBLE_IS_X87", False)  # as where long double is not x87
    monkeypatch.setattr(serial, "fmt_float", lambda x, fmt=serial.fmt_float: calls.append(x) or fmt(x))
    sp.write_kernel(k, tmp_path / "k.csv", tmp_path / "k.txt")
    assert len(calls) == k.grid.n + k.kernel.view(np.float64).size  # every value, header included
    header = ",".join(_oracle_17g(x) for x in k.grid.points) + "\n"
    assert (tmp_path / "k.csv").read_bytes() == (header + _oracle_lines(k.kernel, ",")).encode()
    assert (tmp_path / "k.txt").read_bytes() == _oracle_lines(k.kernel, " ").encode()
    assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "x87.csv").read_bytes()


@pytest.mark.parametrize("index", [0, 1], ids=["real", "complex"])
def test_kernel_rows_are_the_kernel_bitwise(index):
    k = _edge_kernels()[index]
    assert np.stack(list(k.kernel_rows())).tobytes() == k.kernel.tobytes()


def test_complex_edge_cells_are_written_with_explicit_signs(tmp_path):
    k = _edge_kernels()[1]
    assert np.signbit(k.kernel[0, 0].imag) and np.signbit(k.kernel[0, 1].real)
    sp.write_kernel_txt(k, tmp_path / "k.txt")
    first = (tmp_path / "k.txt").read_text().splitlines()[0].split()
    assert first[:3] == ["1+0j", "-0+0j", "2-4.9406564584124654e-324j"]


def test_row_formatter_leaves_its_input_untouched():
    from specparity.serial import fmt_rows

    table = _edge_kernels()[1].action
    before = table.tobytes()
    assert len(list(fmt_rows(table, ","))) == 12
    assert len(list(fmt_rows(np.asfortranarray(table), ","))) == 12
    assert table.tobytes() == before  # -0.0 imaginary parts keep their sign


@pytest.mark.parametrize("scale", [1e307, 1e307 + 1e307j])
def test_kernel_writers_reject_a_kernel_that_overflows(tmp_path, scale):
    from specparity import serial

    grid = sp.make_grid(-1, 1, 99)
    assert grid.h < 1
    last_row = np.ones((99, 99), type(scale))
    last_row[-1, -1] = scale  # its only inf, in a later batch than the first
    assert 98 * 99 >= serial._BATCH_VALUES
    for action in (np.full((99, 99), scale), last_row):
        k = sp.OperatorKernel(grid=grid, action=action)
        with np.errstate(over="ignore"):
            assert not np.isfinite(k.kernel).all()
            with pytest.raises(ValueError, match="non-finite"):
                sp.write_kernel_csv(k, tmp_path / "k.csv")
            with pytest.raises(ValueError, match="non-finite"):
                sp.write_kernel_txt(k, tmp_path / "k.txt")
            with pytest.raises(ValueError, match="non-finite"):
                sp.write_kernel(k, tmp_path / "k.csv", tmp_path / "k.txt")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", [1e307, 1e307 + 1e307j])
def test_failed_kernel_write_leaves_no_file_behind(tmp_path, scale):
    k = sp.OperatorKernel(grid=sp.make_grid(-1, 1, 99), action=np.full((99, 99), scale))
    (tmp_path / "old.csv").write_text("kept csv\n")
    (tmp_path / "old.txt").write_text("kept\n")

    def both(k, path):
        sp.write_kernel(k, path.with_suffix(".csv"), path.with_suffix(".txt"))

    with np.errstate(over="ignore"):
        for writer, name in ((sp.write_kernel_csv, "k.csv"), (sp.write_kernel_txt, "k.txt"), (both, "k")):
            with pytest.raises(ValueError, match="non-finite"):
                writer(k, tmp_path / name)
            # an existing file at the target keeps its content
            with pytest.raises(ValueError, match="non-finite"):
                writer(k, tmp_path / "old.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "old.txt"]
    assert (tmp_path / "old.csv").read_text() == "kept csv\n"
    assert (tmp_path / "old.txt").read_text() == "kept\n"


DELETED_ALGEBRA = ("apply", "compose", "adjoint", "inner_product", "_as_samples", "phi", "identity", "evolution")


def test_the_public_names_resolve_and_the_deleted_algebra_is_gone():
    assert len(set(sp.__all__)) == len(sp.__all__)
    for name in sp.__all__:
        assert hasattr(sp, name), name
    modules = [importlib.import_module(f"specparity.{m.name}") for m in pkgutil.iter_modules(sp.__path__)]
    assert {m.__name__ for m in modules} >= {"specparity.grids", "specparity.operators", "specparity.schrodinger"}
    for owner in (sp, *modules, sp.GradingWeights, sp.Spectrum):
        assert not [name for name in DELETED_ALGEBRA if hasattr(owner, name)], owner
