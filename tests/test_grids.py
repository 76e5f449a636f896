import dataclasses

import numpy as np
import pytest

import specparity as sp


def test_symmetric_grid_example():
    g = sp.make_grid(-8, 8, 799)
    assert g.h == pytest.approx(0.02, abs=1e-16)
    assert g.points[0] == pytest.approx(-7.98, abs=1e-12)
    assert g.symmetric
    assert len(g.points) == 799


def test_asymmetric_grid_example():
    g = sp.make_grid(0, 1, 2)
    assert g.h == pytest.approx(1 / 3, rel=1e-15)
    np.testing.assert_allclose(g.points, [1 / 3, 2 / 3], rtol=1e-14)
    assert not g.symmetric


def test_odd_symmetric_grid_has_exact_midpoint():
    g = sp.make_grid(-10, 10, 999)
    assert g.h == pytest.approx(0.02, abs=1e-16)
    assert g.points[499] == 0.0


def test_symmetric_grid_mirrors_exactly():
    for n in (2, 3, 100, 799):
        g = sp.make_grid(-8, 8, n)
        assert np.array_equal(g.points, -g.points[::-1])


@pytest.mark.parametrize("args", [(-8, 8, 799), (0, 1, 2), (-3, 7, 250)])
def test_uniform_spacing(args):
    g = sp.make_grid(*args)
    assert np.abs(np.diff(g.points) - g.h).max() <= 1e-12 * g.h
    assert np.all(np.diff(g.points) > 0)


# the last two: h*h is 0 at h = 2e-301, and 2/h**2 (in T's diagonal) overflows at h = 9e-155
@pytest.mark.parametrize(
    "bad", [(1, 1, 10), (2, -2, 10), (-8, 8, 1), (-8, 8, 0), (-1e-300, 1e-300, 9), (-4.5e-153, 4.5e-153, 99)]
)
def test_make_grid_rejects_bad_domains(bad):
    with pytest.raises(sp.InvalidDomainError):
        sp.make_grid(*bad)


@pytest.mark.parametrize(
    "bounds",
    [(-np.inf, 8), (-8, np.inf), (-np.inf, np.inf), (np.nan, 8), (-8, np.nan), (-1e308, 1e308)],
)
def test_make_grid_rejects_non_finite_bounds(bounds):
    # an infinite bound (or a width that overflows) would give h = inf and NaN points
    with pytest.raises(sp.InvalidDomainError):
        sp.make_grid(*bounds, 5)


def test_a_spacing_whose_square_overflows_keeps_t_finite():
    grid = sp.make_grid(-1e160, 1e160, 9)  # h*h is inf, so 1/h**2 is 0
    hm = sp.assemble_from_samples(np.zeros(9), grid)
    assert np.all(np.isfinite(hm.diag)) and np.all(np.isfinite(hm.offdiag))


def test_grid_stores_only_its_bounds_and_size():
    assert tuple(f.name for f in dataclasses.fields(sp.Grid)) == ("x_min", "x_max", "n")
    g = sp.make_grid(-8, 8, 9)
    assert g == sp.Grid(-8.0, 8.0, 9)
    assert hash(g) == hash(sp.Grid(-8.0, 8.0, 9))
    assert g != sp.Grid(-8.0, 8.0, 10)
    assert (g.h, g.symmetric) == (1.6, True)
    assert not sp.Grid(0.0, 1.0, 2).symmetric
    assert g.points is g.points  # computed once


def test_make_grid_rejects_non_integer_n():
    with pytest.raises(sp.InvalidDomainError):
        sp.make_grid(-1, 1, 2.5)


def test_grid_points_are_read_only():
    g = sp.make_grid(-1, 1, 5)
    with pytest.raises(ValueError):
        g.points[0] = 0.0


def test_inner_product_constant_vector():
    g = sp.make_grid(0, 1, 3)
    f = np.ones(3)
    assert sp.inner_product(f, f, g) == pytest.approx(0.75, abs=1e-15)


def test_inner_product_orthonormal_eigenpair(harmonic_199):
    s = harmonic_199
    assert abs(sp.inner_product(s.phi[:, 0], s.phi[:, 1], s.grid)) <= 1e-12
    assert abs(sp.inner_product(s.phi[:, 0], s.phi[:, 0], s.grid) - 1) <= 1e-12


def test_inner_product_conjugate_symmetry():
    g = sp.make_grid(-2, 3, 40)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        h = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        a = sp.inner_product(f, h, g)
        b = sp.inner_product(h, f, g)
        assert abs(a - np.conj(b)) <= 1e-15 * max(1.0, abs(a))


def test_inner_product_positive(harmonic_199):
    g = sp.make_grid(-2, 3, 40)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        v = sp.inner_product(f, f, g)
        assert v.real >= 0
        assert abs(v.imag) <= 1e-15 * v.real


def test_inner_product_length_mismatch():
    g = sp.make_grid(0, 1, 3)
    with pytest.raises(sp.GridMismatchError):
        sp.inner_product(np.ones(4), np.ones(3), g)
    with pytest.raises(sp.GridMismatchError):
        sp.inner_product(np.ones(3), np.ones(2), g)


def test_reflection_reverses_samples():
    g = sp.make_grid(-1, 1, 3)
    j = sp.reflection_action(g)
    out = sp.apply(j, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, [3.0, 2.0, 1.0])


def test_reflection_is_an_exact_involution():
    for n in (2, 3, 8, 101):
        g = sp.make_grid(-4, 4, n)
        j = sp.reflection_action(g)
        assert np.array_equal(sp.compose(j, j).action, np.eye(n))


def test_reflection_requires_symmetric_grid():
    with pytest.raises(sp.AsymmetricGridError):
        sp.reflection_action(sp.make_grid(0, 1, 3))
