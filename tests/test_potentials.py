from fractions import Fraction

import numpy as np
import pytest

import specparity as sp


def test_named_evaluate_examples():
    assert sp.evaluate(sp.named("quartic_cubic"), 1.0) == pytest.approx(2.0, abs=1e-15)
    assert sp.evaluate(sp.named("harmonic"), 0.0) == 0.0
    assert sp.evaluate(sp.polynomial([0, 0, 1]), -2.0) == pytest.approx(4.0, abs=1e-15)


def test_named_families_match_their_polynomials():
    xs = np.linspace(-20, 20, 401)
    pairs = [
        ("harmonic", [0, 0, 1]),
        ("quartic", [0, 0, 0, 0, 1]),
        ("quartic_cubic", [0, 0, 0, 1, 1]),
    ]
    for name, coeffs in pairs:
        a = sp.evaluate(sp.named(name), xs)
        b = sp.evaluate(sp.polynomial(coeffs), xs)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)
    # one evaluation path: a named family is its polynomial, bit for bit
    for grid in (sp.make_grid(-10, 10, 999), sp.make_grid(-8, 8, 1999), sp.make_grid(-3.5, 7.25, 777)):
        for name, coeffs in sp.NAMED_POTENTIALS.items():
            a = sp.evaluate(sp.named(name), grid.points)
            b = sp.evaluate(sp.polynomial(coeffs), grid.points)
            assert a.tobytes() == b.tobytes(), (name, grid)


def test_quartic_cubic_samples_lie_within_3_ulp_of_the_exact_value():
    points = sp.make_grid(-10, 10, 999).points
    got = sp.evaluate(sp.named("quartic_cubic"), points)
    # x is a double, so x**4 + x**3 is an exact rational; float() rounds it correctly
    exact = np.array([float(Fraction(x) ** 4 + Fraction(x) ** 3) for x in points.tolist()])
    ulps = np.abs(got - exact) / np.spacing(np.abs(exact))
    assert ulps.max() <= 3.0, ulps.max()


def test_evaluate_scalar_and_array_agree():
    v = sp.polynomial([1.5, 0, 2.0, 0, 0.5, 0, 3.0])
    xs = np.linspace(-5, 5, 17)
    arr = sp.evaluate(v, xs)
    for x, val in zip(xs, arr):
        assert sp.evaluate(v, float(x)) == val


def test_a_potential_with_integer_coefficients_evaluates_as_floats():
    v = sp.Potential((0, 0, 1))  # built directly, not through polynomial()
    xs = np.linspace(-2.5, 2.5, 11)
    assert np.array_equal(sp.evaluate(v, xs), sp.evaluate(sp.named("harmonic"), xs))
    assert sp.evaluate(v, 1.5) == 2.25


def test_horner_matches_term_by_term_sum():
    rng = np.random.default_rng(3)
    xs = np.linspace(-20, 20, 201)
    for _ in range(25):
        degree = int(rng.integers(1, 6)) * 2  # even degree <= 10
        coeffs = rng.standard_normal(degree + 1)
        coeffs[-1] = abs(coeffs[-1]) + 0.1
        v = sp.polynomial(coeffs)
        expected = sum(c * xs**k for k, c in enumerate(coeffs))
        got = sp.evaluate(v, xs)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())


def test_is_even_examples():
    grid = sp.make_grid(-8, 8, 399)
    assert sp.is_even(sp.named("harmonic"), grid)
    assert not sp.is_even(sp.named("quartic_cubic"), grid)
    assert sp.is_even(sp.polynomial([0, 0, 0, 0, 1]), grid)


def test_is_even_verdict_stable_under_refinement():
    for v, expected in [
        (sp.named("harmonic"), True),
        (sp.named("quartic_cubic"), False),
        (sp.polynomial([3, 0, -2, 0, 1]), True),
        (sp.polynomial([0, 1e-8, 0, 0, 0, 0, 1]), False),
    ]:
        for n in (51, 201, 801):
            assert sp.is_even(v, sp.make_grid(-6, 6, n)) is expected


def test_is_even_requires_symmetric_grid():
    with pytest.raises(sp.AsymmetricGridError):
        sp.is_even(sp.named("harmonic"), sp.make_grid(0, 1, 9))


def test_even_potentials_sample_palindromically():
    # downstream reflection handling needs V(-x_i) == V(x_i) exactly
    grid = sp.make_grid(-8, 8, 799)
    for v in (sp.named("harmonic"), sp.named("quartic"), sp.polynomial([1, 0, -3, 0, 2])):
        vals = np.asarray(sp.evaluate(v, grid.points))
        assert np.array_equal(vals, vals[::-1])


@pytest.mark.parametrize(
    "coeffs",
    [
        [0, 0, 0, 1],  # odd leading power
        [0, 0, -1],  # non-positive leading coefficient
        [5.0],  # constant
        [0.0, 0.0],  # identically zero
    ],
)
def test_polynomial_rejects_non_confining(coeffs):
    with pytest.raises(sp.PotentialError):
        sp.polynomial(coeffs)


def test_polynomial_rejects_complex_coefficients():
    with pytest.raises(sp.PotentialError):
        sp.polynomial([0, 0, 1 + 1j])
    # real-valued complex dtype is fine
    v = sp.polynomial(np.array([0, 0, 1], dtype=complex))
    assert v.coefficients == (0.0, 0.0, 1.0)


def test_named_rejects_unknown():
    with pytest.raises(sp.PotentialError):
        sp.named("sextic")


def test_describe_round_trip():
    assert sp.named("harmonic").describe() == {"named": "harmonic"}
    assert sp.polynomial([0, 0, 0, 1, 1]).describe() == {"poly": [0.0, 0.0, 0.0, 1.0, 1.0]}


def test_describe_gives_python_floats():
    # == cannot tell np.float64 from float; their reprs differ under numpy 2
    for coeffs in ([0, 0, 1], np.array([0.0, 0.0, 1.0]), np.array([0, 0, 1], dtype=complex)):
        poly = sp.polynomial(coeffs).describe()["poly"]
        assert [type(c) for c in poly] == [float, float, float]
        assert repr(poly) == "[0.0, 0.0, 1.0]"


def test_trailing_zeros_stripped():
    v = sp.polynomial([0, 0, 1, 0, 0])
    assert v.degree == 2
