import dataclasses
import json

import numpy as np
import pytest

import specparity as sp


@pytest.fixture(scope="module")
def qc_suite(qc_199):
    return sp.run_suite(sp.named("quartic_cubic"), qc_199.grid)


def test_hermiticity_examples(qc_199):
    parity = sp.build_parity(qc_199)
    assert sp.check_hermiticity(parity) <= 1e-12
    q = sp.build_triparity(qc_199)
    assert sp.check_hermiticity(q) > 0.1  # entrywise defect is macroscopic
    assert sp.spectral_hermiticity_gap(q) == pytest.approx(np.sqrt(3.0), abs=1e-10)
    ident = sp.OperatorKernel(grid=qc_199.grid, action=np.eye(199))
    assert sp.check_hermiticity(ident) == 0.0


def dense_commutator(k, hm):
    """Oracle: ||A T - T A||_max / ||T||_max with T built densely."""
    t = hm.to_dense()
    return np.abs(k.action @ t - t @ k.action).max() / hm.norm_max


def test_hermiticity_gap_matches_dense_eigvalsh_with_nonsymmetric_real_part():
    grid = sp.make_grid(-1, 1, 80)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    assert np.abs(a.real - a.real.T).max() > 0.1  # K = Re(A - A^dagger) is not small
    dense = np.abs(np.linalg.eigvalsh((a - a.conj().T) / 1j)).max()
    gap = sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=grid, action=a))
    assert gap == pytest.approx(dense, abs=1e-12)
    # the symmetric part alone has a different norm, so dropping K is caught
    s_only = np.abs(np.linalg.eigvalsh(a.imag + a.imag.T)).max()
    assert abs(s_only - dense) > 1e-3


def test_hermiticity_gap_of_hermitian_kernels_is_zero(qc_199):
    ident = sp.OperatorKernel(grid=qc_199.grid, action=np.eye(199))
    assert sp.spectral_hermiticity_gap(ident) == 0.0
    assert sp.spectral_hermiticity_gap(sp.build_parity(qc_199)) <= 1e-12


@pytest.mark.parametrize("n", [8, 9])
def test_hermiticity_gap_of_a_hermitian_centrosymmetric_kernel_needs_no_lanczos(monkeypatch, n):
    # its fold blocks, the middle row and column of an odd n too, are exactly Hermitian
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = b + b.conj().T
    a = h + h[::-1, ::-1]

    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh ran on an exactly Hermitian operand")

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_lanczos)
    assert sp.spectral_hermiticity_gap(sp.OperatorKernel(grid=sp.make_grid(-1, 1, n), action=a)) == 0.0


def test_commutator_examples(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    assert sp.check_commutator(sp.build_parity(qc_199), hm) <= 1e-10
    assert sp.check_commutator(sp.build_triparity(qc_199), hm) <= 1e-10


def test_banded_commutator_matches_dense_form(qc_199):
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    rng = np.random.default_rng(23)
    random_kernel = sp.OperatorKernel(
        grid=qc_199.grid,
        action=rng.standard_normal((199, 199)) + 1j * rng.standard_normal((199, 199)),
    )
    for k in (sp.build_parity(qc_199), sp.build_triparity(qc_199), random_kernel):
        banded = sp.check_commutator(k, hm)
        # both forms are relative to ||T||_max, so 1e-13 here is 1e-13 * ||T|| absolute
        assert abs(banded - dense_commutator(k, hm)) <= 1e-13
    assert sp.check_commutator(random_kernel, hm) > 0.1


def test_commutator_detects_basis_mismatch():
    # negative control: the parity of one Hamiltonian against another
    grid = sp.make_grid(-8, 8, 199)
    harmonic_spec = sp.solve(sp.assemble(sp.named("harmonic"), grid))
    foreign = sp.assemble(sp.named("quartic_cubic"), grid)
    parity = sp.build_parity(harmonic_spec)
    resid = sp.check_commutator(parity, foreign)
    assert resid > 1e-6
    assert abs(resid - dense_commutator(parity, foreign)) <= 1e-13


def test_involution_examples(qc_199):
    assert sp.check_involution(sp.build_parity(qc_199)) <= 1e-10
    j = sp.reflection_action(sp.make_grid(-1, 1, 7))
    assert sp.check_involution(j) == 0.0
    assert sp.check_involution(sp.build_triparity(qc_199)) > 0.5


def test_involution_refuses_truncated(qc_199):
    trunc = sp.build_parity(qc_199, truncate=50)
    with pytest.raises(sp.TruncatedOperatorError):
        sp.check_involution(trunc)
    with pytest.raises(sp.TruncatedOperatorError):
        sp.check_cube(trunc)


def test_cube_examples(qc_199):
    assert sp.check_cube(sp.build_triparity(qc_199)) <= 1e-10
    ident = sp.OperatorKernel(grid=qc_199.grid, action=np.eye(199))
    assert sp.check_cube(ident) == 0.0
    # P^3 = P, so the cube residual coincides with ||P - I||
    parity = sp.build_parity(qc_199)
    a = parity.action
    cube_resid = sp.check_cube(parity)
    assert cube_resid == pytest.approx(np.abs(a - np.eye(199)).max(), rel=1e-9)
    assert np.linalg.norm(a @ a @ a - np.eye(199), 2) == pytest.approx(2.0, abs=1e-10)


def test_alternation_invariant_under_sign_flips(qc_199):
    import dataclasses

    parity = sp.build_parity(qc_199)
    flipped_modes = qc_199.modes.copy()
    flipped_modes[:, [1, 4, 60]] *= -1.0
    flipped = dataclasses.replace(qc_199, modes=flipped_modes)
    a = sp.check_alternation(parity, qc_199)
    b = sp.check_alternation(sp.build_parity(flipped), flipped)
    assert abs(a - b) <= 1e-14


def test_alternation_examples(qc_199):
    parity = sp.build_parity(qc_199)
    assert sp.check_alternation(parity, qc_199) <= 1e-10
    q = sp.build_triparity(qc_199)
    w = sp.GradingWeights.cube_roots(199)
    assert sp.check_alternation(q, qc_199, w) <= 1e-10
    # wrong grading: odd modes violated with 2-norm residual 2
    wrong = sp.check_alternation(parity, qc_199, sp.GradingWeights(np.ones(199)))
    assert wrong == pytest.approx(2.0, abs=1e-10)


def test_reflection_reduction_examples(harmonic_799, quartic_799, qc_199):
    harmonic_parity = sp.build_parity(harmonic_799)
    assert sp.check_reflection_reduction(
        harmonic_parity, sp.named("harmonic"), harmonic_799.grid
    ) <= 1e-6
    quartic_parity = sp.build_parity(quartic_799)
    assert sp.check_reflection_reduction(
        quartic_parity, sp.named("quartic"), quartic_799.grid
    ) <= 1e-6
    qc_parity = sp.build_parity(qc_199)
    marker = sp.check_reflection_reduction(qc_parity, sp.named("quartic_cubic"), qc_199.grid)
    assert marker is None


def _dense_alternation(k, s, w):
    return np.linalg.norm(k.action @ s.modes - s.modes * w.values, axis=0).max()


def test_alternation_of_complex_kernels_matches_the_dense_form(qc_199):
    w = sp.GradingWeights.cube_roots(199)
    q = sp.build_triparity(qc_199)
    assert abs(sp.check_alternation(q, qc_199, w) - _dense_alternation(q, qc_199, w)) <= 1e-15
    rng = np.random.default_rng(3)
    noise = sp.OperatorKernel(
        grid=qc_199.grid,
        action=rng.standard_normal((199, 199)) + 1j * rng.standard_normal((199, 199)),
    )
    for weights in (w, sp.GradingWeights.alternating(199)):
        resid = sp.check_alternation(noise, qc_199, weights)
        assert resid > 1.0
        assert resid == pytest.approx(_dense_alternation(noise, qc_199, weights), rel=1e-12)


def _identity_kernels(s):
    return {
        "parity": sp.build_parity(s),
        "triparity": sp.build_triparity(s),
        "reflection": sp.reflection_action(s.grid),
    }


@pytest.mark.parametrize("which", ["parity", "triparity", "reflection"])
def test_identity_checks_equal_the_dense_formulas(harmonic_199, which):
    k = _identity_kernels(harmonic_199)[which]
    a, eye = k.action, np.eye(199)
    assert sp.check_involution(k) == np.abs(a @ a - eye).max()
    assert sp.check_cube(k) == np.abs(a @ a @ a - eye).max()
    assert sp.check_reflection_reduction(k, sp.named("harmonic"), k.grid) == (
        np.abs(a - eye[::-1]).max()
    )
    assert np.array_equal(k.action, a)  # the checks leave the kernel untouched


def test_identity_checks_refuse_truncated_triparity(qc_199):
    trunc = sp.build_triparity(qc_199, truncate=50)
    with pytest.raises(sp.TruncatedOperatorError):
        sp.check_involution(trunc)
    with pytest.raises(sp.TruncatedOperatorError):
        sp.check_cube(trunc)


def test_sweep_reflection_residuals_equal_the_dense_formula(tmp_path):
    from specparity.cli import main

    ns = [99, 199, 399]
    args = ["sweep", "--potential", "harmonic", "--xmin", "-8", "--xmax", "8",
            "--sweep-n", ",".join(map(str, ns)), "--truncate", "40", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    for n, line in zip(ns, lines[1:]):
        row = dict(zip(header, line.split(",")))
        s = sp.solve(sp.assemble(sp.named("harmonic"), sp.make_grid(-8, 8, n)))
        j = np.eye(n)[::-1]
        assert float(row["reflection_residual"]) == np.abs(sp.build_parity(s).action - j).max()
        trunc = sp.build_parity(s, truncate=40).action
        assert float(row["trunc_residual"]) == np.abs(trunc - j).max()


def test_conservation_superposition(qc_199):
    parity = sp.build_parity(qc_199)
    psi0 = (qc_199.modes[:, 0] + qc_199.modes[:, 1]) / np.sqrt(2.0)
    times = np.linspace(0.0, 10.0, 101)
    assert sp.check_conservation(parity, qc_199, psi0, times) <= 1e-10


def test_conservation_stationary_state(qc_199):
    parity = sp.build_parity(qc_199)
    drift = sp.check_conservation(parity, qc_199, qc_199.modes[:, 0], np.linspace(0, 7, 29))
    assert drift <= 1e-12


def test_conservation_gaussian_against_dense_evolution_oracle(qc_199):
    s = qc_199
    parity = sp.build_parity(s)
    g = np.exp(-((s.grid.points - 1.0) ** 2) / 2.0)
    g = g / np.linalg.norm(g)
    times = np.linspace(0.0, 10.0, 101)
    drift = sp.check_conservation(parity, s, g, times)
    assert drift <= 1e-10
    # oracle: build the full evolution matrix at each time and apply it
    expectations = []
    for t in times:
        u_t = (s.modes * np.exp(-1j * s.energies * t)) @ s.modes.T
        psi_t = u_t @ g.astype(complex)
        expectations.append(np.vdot(psi_t, parity.action @ psi_t))
    expectations = np.asarray(expectations)
    oracle_drift = np.abs(expectations - expectations[0]).max()
    assert oracle_drift <= 1e-10
    assert drift == pytest.approx(oracle_drift, abs=1e-12)


def test_conservation_of_non_conserved_operators_matches_loop_oracle(qc_199):
    # operators that do not commute with H must drift, by exactly the amount
    # a per-time loop of dense evolutions measures; covers real and complex A
    s = qc_199
    rng = np.random.default_rng(41)
    g = rng.standard_normal((199, 199)) + 1j * rng.standard_normal((199, 199))
    kernels = (sp.reflection_action(s.grid), sp.OperatorKernel(grid=s.grid, action=g))
    psi0 = np.exp(-((s.grid.points - 1.0) ** 2) / 2.0)
    psi0 = psi0 / np.linalg.norm(psi0)
    times = np.linspace(0.0, 10.0, 101)
    for k in kernels:
        expectations = []
        for t in times:
            psi_t = (s.modes * np.exp(-1j * s.energies * t)) @ (s.modes.T @ psi0)
            expectations.append(np.vdot(psi_t, k.action @ psi_t))
        oracle = np.abs(np.asarray(expectations) - expectations[0]).max()
        drift = sp.check_conservation(k, s, psi0, times)
        assert oracle > 1e-3
        assert drift == pytest.approx(oracle, abs=1e-12)


def test_conservation_trivial_grading_norm(qc_199):
    ident = sp.build_graded(qc_199, sp.GradingWeights(np.ones(199)))
    rng = np.random.default_rng(13)
    psi = rng.standard_normal(199) + 1j * rng.standard_normal(199)
    psi = psi / np.linalg.norm(psi)
    assert sp.check_conservation(ident, qc_199, psi, np.linspace(0, 10, 41)) <= 1e-12


def test_conservation_rejects_unnormalized(qc_199):
    parity = sp.build_parity(qc_199)
    with pytest.raises(sp.UnnormalizedStateError):
        sp.check_conservation(parity, qc_199, 2.0 * qc_199.modes[:, 0], [0.0, 1.0])


def test_suite_passes_for_quartic_cubic(qc_suite):
    assert qc_suite.passed
    names = [c.name for c in qc_suite.checks]
    assert names == sorted(names)
    refl = next(c for c in qc_suite.checks if c.name == "reflection_reduction")
    assert not refl.applicable and refl.passed and refl.residual is None


def test_suite_passes_for_harmonic_with_reflection(harmonic_799):
    report = sp.run_suite(sp.named("harmonic"), harmonic_799.grid)
    assert report.passed
    refl = next(c for c in report.checks if c.name == "reflection_reduction")
    assert refl.applicable and refl.passed and refl.residual <= 1e-6
    # the fold separates the machine-degenerate band-top pairs; no check fails, so nothing warns
    assert report.warnings == ()


def test_suite_on_asymmetric_grid_marks_reflection_na():
    report = sp.run_suite(sp.named("harmonic"), sp.make_grid(-8, 9, 199))
    assert report.passed
    refl = next(c for c in report.checks if c.name == "reflection_reduction")
    assert not refl.applicable


def test_suite_residuals_are_deterministic(qc_199, qc_suite):
    again = sp.run_suite(sp.named("quartic_cubic"), qc_199.grid)
    for a, b in zip(qc_suite.checks, again.checks):
        assert a.name == b.name
        assert a.residual == b.residual  # bitwise
        assert a.passed == b.passed
    doc_a = again.to_json(include_seconds=False)
    doc_b = sp.run_suite(sp.named("quartic_cubic"), qc_199.grid).to_json(include_seconds=False)
    assert doc_a == doc_b


def test_corrupted_eigenvector_fails_the_suite(qc_199):
    broken = sp.corrupt_spectrum(qc_199, mode=3, eps=1e-3, seed=0)
    parity = sp.build_parity(broken)
    hm = sp.assemble(sp.named("quartic_cubic"), qc_199.grid)
    assert sp.check_involution(parity) > 1e-6
    assert sp.check_commutator(parity, hm) > 1e-6
    report = sp.run_suite(sp.named("quartic_cubic"), qc_199.grid, spectrum=broken)
    assert not report.passed
    # the original spectrum is untouched
    assert sp.check_involution(sp.build_parity(qc_199)) <= 1e-10


@pytest.mark.parametrize("fixture, name, pair, defect", [
    ("qc_199", "quartic_cubic", (0, 1), 1),
    ("qc_199", "quartic_cubic", (0, 2), 4),
    ("harmonic_199", "harmonic", (0, 1), 1),
    ("harmonic_199", "harmonic", (0, 2), 2),
], ids=["qc-u0-u1", "qc-u0-u2", "harmonic-u0-u1", "harmonic-u0-u2"])
def test_a_rotation_of_two_modes_fails_the_node_audit(request, fixture, name, pair, defect):
    # u0 -> cos(0.1) u0 - sin(0.1) uj keeps the basis orthonormal but adds
    # nodes to u0. In the opposite sense the harmonic u0 is, up to a positive
    # factor, (cos 0.1 + sin 0.1 (2x^2 - 1) / sqrt 2) e^(-x^2 / 2), which has
    # no node, and the audit reads 0.
    s = request.getfixturevalue(fixture)
    c, sn = np.cos(0.1), np.sin(0.1)
    modes = s.modes.copy()
    modes[:, pair] = s.modes[:, pair] @ np.array([[c, sn], [-sn, c]])
    rotated = dataclasses.replace(s, modes=modes, folded=False)
    report = sp.run_suite(sp.named(name), s.grid, spectrum=rotated)
    (nodes,) = [r for r in report.checks if r.name == "node_count"]
    assert nodes.residual == defect
    assert not nodes.passed
    assert len([w for w in report.warnings if w.startswith("node_count:")]) == 1


def test_corrupted_folded_spectrum_fails_the_suite(harmonic_199, qc_199):
    import dataclasses

    assert harmonic_199.folded and not qc_199.folded
    broken = sp.corrupt_spectrum(harmonic_199, mode=3, eps=1e-3, seed=0)
    assert not broken.folded  # the noise breaks the mirror, so the record goes
    report = sp.run_suite(sp.named("harmonic"), harmonic_199.grid, spectrum=broken)
    assert not report.passed
    # a folded spectrum cannot carry modes that break the mirror
    modes = harmonic_199.modes.copy()
    modes[0, 3] += 1e-3
    with pytest.raises(ValueError, match="mirror"):
        dataclasses.replace(harmonic_199, modes=modes)
    modes = harmonic_199.modes.copy()
    modes[199 // 2, 5] = 1e-300  # the middle entry of an odd mode is zero
    with pytest.raises(ValueError, match="mirror"):
        dataclasses.replace(harmonic_199, modes=modes)


def test_tolerance_override_validation(qc_199):
    with pytest.raises(ValueError):
        sp.run_suite(sp.named("quartic_cubic"), qc_199.grid, {"no_such_check": 1e-3})
    with pytest.raises(ValueError):
        sp.run_suite(sp.named("quartic_cubic"), qc_199.grid, {"parity_involution": -1.0})


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, "abc", True, None])
def test_tolerance_values_must_be_positive_finite_reals(qc_199, monkeypatch, value):
    # rejected before any stage runs: an inf tolerance would pass every check
    # and leave a report that cannot be serialized
    monkeypatch.setattr(sp.verify, "assemble", None)
    with pytest.raises(sp.ConfigError):
        sp.run_suite(sp.named("quartic_cubic"), qc_199.grid, {"completeness": value})


def test_stage_failures_carry_the_stage_name(qc_199):
    import dataclasses

    partial = dataclasses.replace(qc_199, modes=qc_199.modes[:, :50])
    with pytest.raises(sp.SuiteStageError) as err:
        sp.run_suite(sp.named("quartic_cubic"), qc_199.grid, spectrum=partial)
    assert err.value.stage == "build_triparity"  # the complex grading is built first


def test_report_schema_and_serialization(qc_suite):
    doc = json.loads(qc_suite.to_json())
    assert set(doc) == {"potential", "grid", "checks", "pass", "timings"}
    assert doc["potential"] == {"named": "quartic_cubic"}
    assert set(doc["grid"]) == {"x_min", "x_max", "n", "h"}
    assert doc["grid"]["n"] == 199
    assert doc["pass"] is True
    for entry in doc["checks"]:
        assert set(entry) == {"name", "residual", "tolerance", "pass", "seconds", "applicable"}
        if entry["applicable"]:
            assert entry["residual"] >= 0.0
        else:
            assert entry["residual"] is None
    # 17-significant-digit floats round-trip exactly
    h = doc["grid"]["h"]
    assert h == qc_suite.grid["h"]


def test_report_invariants(qc_suite):
    assert qc_suite.passed == all(c.passed for c in qc_suite.checks)
    for c in qc_suite.checks:
        if c.residual is not None:
            assert np.isfinite(c.residual) and c.residual >= 0
        assert c.seconds >= 0


def test_verdicts_are_derived_from_residual_and_tolerance():
    ok, at_tol = sp.CheckResult("a", 1e-9, 1e-8, 0.0), sp.CheckResult("b", 1e-8, 1e-8, 0.0)
    na, bad = sp.CheckResult("c", None, 1e-8, 0.0), sp.CheckResult("d", 2e-8, 1e-8, 0.0)
    assert ok.applicable and ok.passed and at_tol.passed
    assert not na.applicable and na.passed
    assert bad.applicable and not bad.passed
    assert sp.VerificationReport({}, {}, (ok, at_tol, na)).passed
    assert not sp.VerificationReport({}, {}, (ok, bad)).passed
    with pytest.raises(ValueError):
        sp.VerificationReport({}, {}, (sp.CheckResult("e", float("nan"), 1e-8, 0.0),))


def test_a_non_finite_residual_raises_a_stage_error_that_names_its_check():
    # energies near 1.8e308 overflow the propagator's phases E t, so the drift is nan;
    # the check is named before a report could refuse the value
    v, grid = sp.polynomial([1.79e308, 0, 1]), sp.make_grid(-1, 1, 99)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sp.SuiteStageError, match="residual is nan") as info:
            sp.run_suite(v, grid)
    assert info.value.stage == "conservation_superposition"
    assert isinstance(info.value, RuntimeError) and not isinstance(info.value.__cause__, ValueError)


def test_report_carries_stage_timings(qc_suite):
    doc = json.loads(qc_suite.to_json())
    # the reconstruction is streamed inside its check, so it is no stage
    stages = ["assemble", "solve", "build_triparity", "build_parity"]
    assert list(doc["timings"]) == stages
    assert all(seconds >= 0.0 for seconds in doc["timings"].values())
    # timings are unstable like the per-check seconds, so they leave together
    assert "timings" not in json.loads(qc_suite.to_json(include_seconds=False))


def test_gaussian_state_off_the_grid_keeps_the_conservation_check_finite():
    # a grid far from x = 1, where a unit Gaussian centred there underflows to zero
    report = sp.run_suite(sp.named("harmonic"), sp.make_grid(-50, -40, 49))
    (gaussian,) = [c for c in report.checks if c.name == "conservation_gaussian"]
    assert 0.0 <= gaussian.residual <= gaussian.tolerance


@pytest.mark.parametrize(
    "x_min, x_max, n",
    [(-10, 10, 999), (-10, 10, 399), (-8, 8, 1999), (-8, 8, 199), (-8, 8, 399), (-8, 8, 799), (-8, 8, 1599),
     (-50, -40, 49)],
)
def test_gaussian_state_keeps_its_bits_where_the_clamped_gaussian_is_nonzero(x_min, x_max, n):
    from specparity.verify import _gaussian_state

    points = sp.make_grid(x_min, x_max, n).points
    center = min(max(1.0, points[0]), points[-1])
    g = np.exp(-((points - center) ** 2) / 2.0)
    assert _gaussian_state(sp.make_grid(x_min, x_max, n)).tobytes() == (g / np.linalg.norm(g)).tobytes()


@pytest.mark.parametrize("width", [3.9907173775960026e30, 1e200])
def test_gaussian_state_on_a_grid_too_coarse_for_the_clamped_gaussian_is_a_unit_vector(width):
    from specparity.verify import _gaussian_state

    grid = sp.make_grid(-width, width, 12)
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # exp may underflow
        psi = _gaussian_state(grid)
    # centred on the grid point nearest x = 1, where it is 1; every other point underflows
    nearest = np.abs(grid.points - 1.0).argmin()
    assert psi[nearest] == 1.0 and np.count_nonzero(psi) == 1
