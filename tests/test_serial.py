"""fmt_rows against Python's own '%.17g', byte for byte."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specparity import serial
from specparity.serial import fmt_rows

MAX_FINITE = 0x7FEF_FFFF_FFFF_FFFF  # the largest finite double's bit pattern


def _oracle(table, sep=","):
    if np.iscomplexobj(table):
        cells = [[format(z.real, ".17g") + format(z.imag + 0.0, "+.17g") + "j" for z in row]
                 for row in table.tolist()]
    else:
        cells = [[format(x, ".17g") for x in row] for row in table.tolist()]
    return [sep.join(row) + "\n" for row in cells]


finite_bits = st.integers(0, MAX_FINITE) | st.integers(1 << 63, 1 << 63 | MAX_FINITE)  # + and -


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rows: st.lists(
    st.lists(finite_bits, min_size=2, max_size=2 * 40), min_size=rows, max_size=rows)))
def test_rows_match_17g_on_raw_bit_patterns(bit_rows):
    width = min(map(len, bit_rows)) // 2 * 2  # even, so the same values also make complex rows
    table = np.array([row[:width] for row in bit_rows], np.uint64).view(np.float64)
    assert list(fmt_rows(table, ",")) == _oracle(table)
    cplx = table.view(np.complex128)
    assert list(fmt_rows(cplx, " ")) == _oracle(cplx, " ")


def test_rows_match_17g_on_a_sweep_of_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, MAX_FINITE, (64, 2048), np.uint64, endpoint=True)
    table = bits.view(np.float64) * np.where(np.arange(2048) % 2, -1.0, 1.0)
    assert list(fmt_rows(table, ",")) == _oracle(table)
    assert serial._significands(np.abs(table))[2].any()  # the fallback is exercised


def test_rows_match_17g_at_every_binade_and_power_of_ten():
    binades = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(Fraction(10) ** k) for k in range(-323, 309)])
    edges = np.concatenate([binades, np.nextafter(binades, 0), tens,
                            np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    table = edges.reshape(1, -1)
    assert list(fmt_rows(table, ",")) == _oracle(table)
    assert list(fmt_rows(-table.T, ",")) == _oracle(-table.T)


@pytest.mark.skipif(not serial._LONG_DOUBLE_IS_X87, reason="the table is for x87 long double")
def test_power_of_ten_table_is_rounded_to_nearest():
    scale = serial._tables()[0]
    for e, entry in zip(range(serial._E_MIN, serial._E_MAX + 1), scale):
        mantissa, exponent = np.frexp(entry)
        value = int(np.ldexp(mantissa, 64)) * Fraction(2) ** (int(exponent) - 64)  # exact
        assert abs(value - Fraction(10) ** (16 - e)) <= Fraction(2) ** (int(exponent) - 65)


# (value, its 17g text), each also written negated and in complex cells; zeros are below
NAMED = [
    # exact decimal ties, rounded half to even
    (1125899906842624.25, "1125899906842624.2"),
    (1125899906842624.75, "1125899906842624.8"),
    # the doubles nearest 1e-14 and 1e98 lie below them and round up to them
    (1e-14, "1e-14"),
    (1e98, "1e+98"),
    (1e-305, "1e-305"),
    # the switch between fixed and scientific notation
    (1e-5, "1.0000000000000001e-05"),
    (9.9999999999999991e-05, "9.9999999999999991e-05"),
    (1e-4, "0.0001"),
    (9999999999999998.0, "9999999999999998"),
    (1e16, "10000000000000000"),
    (99999999999999984.0, "99999999999999984"),
    (1e17, "1e+17"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
]


@pytest.mark.parametrize("value, text", NAMED, ids=[t for _, t in NAMED])
def test_named_values_match_17g(value, text):
    assert format(value, ".17g") == text
    assert list(fmt_rows(np.array([[value]]), ",")) == [text + "\n"]
    [line] = fmt_rows(np.array([[-value, value]]), ",")
    assert line == f"-{text},{text}\n"
    [line] = fmt_rows(np.array([[complex(-value, value), complex(value, -value)]]), ",")
    assert line == f"-{text}+{text}j,{text}-{text}j\n"


def test_ties_fall_back_and_round_ups_carry():
    a = np.array([1125899906842624.25, 1125899906842624.75, 1e-14, 1e98, 1e-305])
    n, e, fallback = serial._significands(a)
    assert fallback[:2].all()  # exact ties: the scaled value sits on a half-integer
    assert n[2:].tolist() == [10**16] * 3 and e[2:].tolist() == [-14, 98, -305]
    assert all(Fraction(x) < Fraction(10) ** k for x, k in zip(a[2:].tolist(), e[2:].tolist()))


def test_signed_zeros_and_extremes_match_17g():
    values = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    table = np.array([values])
    assert list(fmt_rows(table, ",")) == ["0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,"
                                          "1.7976931348623157e+308,-1.7976931348623157e+308\n"]
    cplx = np.array([[complex(a, b) for a in values for b in values]])
    assert list(fmt_rows(cplx, ",")) == _oracle(cplx)
    assert "-0j" not in list(fmt_rows(cplx, ","))[0]  # -0.0 imaginary parts write as +0j


@pytest.mark.parametrize("shape", [(1, 1), (130, 100), (3, serial._BATCH_VALUES + 7)],
                         ids=["1x1", "rows_over_several_batches", "rows_longer_than_a_batch"])
def test_tables_over_several_batches_match_17g(shape):
    rows, width = shape
    assert rows == 1 or rows * width > 2 * serial._BATCH_VALUES  # three batches or more
    rng = np.random.default_rng(rows)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    assert list(fmt_rows(table, ",")) == _oracle(table)
    assert list(fmt_rows(iter(table), " ")) == _oracle(table, " ")  # a generator of rows
    cplx = table + 1j * table[::-1]
    assert list(fmt_rows(cplx, ",")) == _oracle(cplx)
