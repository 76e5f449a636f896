"""Deterministic text serialization.

Every float written by this package is formatted as 17 significant digits
(round-trip exact), so identical runs produce byte-identical CSV and JSON
artifacts. ``fmt_float`` carries that contract for single values and
``fmt_rows`` for whole tables, one row per line; both reject non-finite
values. ``fmt_rows`` formats a bounded batch of rows at a time with numpy
and writes the same bytes as ``'%.17g'``; the values it cannot round with
certainty, and every value where long double is not the x87 80-bit format,
go to ``fmt_float``.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from itertools import chain, islice

import numpy as np

# _significands' error bound needs x87's 64-bit significand: two roundings of at most 2**-64.
_LONG_DOUBLE_IS_X87 = np.finfo(np.longdouble).nmant == 63
_BATCH_VALUES = 1 << 12  # doubles per batch: small enough that its arrays stay in cache
_E_MIN, _E_MAX = -324, 309  # the decimal exponents that the scaling of a finite double can try
# 2**-63 (1 + 2**-52), exact; rounding y * _BOUND loses far less than the 2**-52 spare
_BOUND = np.longdouble(2.0**-63 * (1 + 2.0**-52))


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(x, ".17g")


def fmt_rows(rows, sep: str):
    """Lines of 17g text, one per row, for rows of equal length.

    ``rows`` is any iterable of real or complex 1-D arrays: a 2-D array, or
    a generator that makes each row on demand. Complex entries are written
    ``re+imj`` / ``re-imj``; an imaginary part of -0.0 gets + 0.0 first, so
    it writes as ``+0j``. Each line is byte for byte ``'%.17g'`` of every
    real part and ``'%+.17g'`` of every imaginary part, joined by ``sep``.

    Rows are taken one bounded batch at a time, ``_BATCH_VALUES`` doubles
    (at least one row), so the table is never held whole, nor as Python
    floats. A batch is checked before it is formatted, and a non-finite
    value raises ``fmt_float``'s ValueError before any of its lines is
    yielded.

    The batch is formatted with numpy: each |x| is scaled to a 17-digit
    integer y in x87 long double by one correctly rounded power of ten.
    Two roundings of at most 2**-64 each keep y within y 2**-63 (1 + 2**-52)
    of the exact value, so where y is farther than that from a half-integer
    its rounding is the correctly rounded one (``_significands`` gives the
    argument). A value within the bound, exact ties among them, goes to
    ``fmt_float``, and so does every value where long double is not the
    80-bit x87 format (``np.finfo(np.longdouble).nmant != 63``).
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    width = first.size * (2 if first.dtype.kind == "c" else 1)
    rows = chain([first], rows)
    while batch := list(islice(rows, max(1, _BATCH_VALUES // width))):
        yield from _format_batch(np.stack(batch), sep)


@functools.cache
def _tables():
    """The constant tables, built on first use, not at import.

    ``scale[e - _E_MIN]`` is 10**(16 - e) rounded to the nearest long double
    by the C library's ``strtold``, which numpy calls to parse the text.
    The others are 8-byte cell words (see ``_templates``) indexed by value:
    ``quads[q]`` holds the four digits of q = 0..9999 at every other byte,
    ``heads[d]`` the digit d at byte 6 and ``exps[k]`` the three exponent
    digits of k = 0..999 at bytes 2-4; ``zeros[q]`` counts q's trailing
    zeros among its four digits.
    """
    scale = np.array([f"1e{16 - e}" for e in range(_E_MIN, _E_MAX + 1)], np.longdouble)
    four = np.arange(10000)
    digits = (four[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quads, heads, exps = (np.zeros((k, 8), np.uint8) for k in (10000, 10, 1000))
    quads[:, ::2] = digits
    heads[:, 6] = digits[:10, 3]
    exps[:, 2:5] = digits[:1000, 1:]
    zeros = sum(four % 10**k == 0 for k in range(1, 5))
    tables = (scale, *(w.view(np.uint64).ravel() for w in (quads, heads, exps)), zeros)
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _significands(a):
    """(n, e, fallback) for finite a >= 0, elementwise.

    n is a rounded to 17 significant digits, as an integer in
    [10**16, 10**17) (0 for a zero), and e its decimal exponent:
    a ~ n * 10**(e - 16). Where ``fallback`` is set, n and e are not
    certain and the caller formats the value with ``fmt_float``.

    Exactness: e starts at floor((E - 1) log10 2) for a in [2**(E-1), 2**E),
    which is floor(log10 a) or one less, and goes up by one where
    y = a * 10**(16 - e) reaches 1e17. y is computed in x87 long double
    (64-bit significand, unit roundoff u = 2**-64): a is exact there, the
    table entry is 10**(16 - e) (1 + d1), and the product rounds once
    more, (1 + d2), with |d1|, |d2| <= u. So the exact z = a * 10**(16 - e)
    has |y - z| <= y (2u + u**2) / (1 - u)**2 < y 2**-63 (1 + 2**-52),
    which is below 0.011 for y < 1e17. Where y is farther than that bound
    from the nearest half-integer (a distance long double gives exactly),
    z lies strictly between the same two half-integers as y, so rint(y)
    is z rounded to nearest: the digits of Python's correctly rounded
    conversion. The other values, exact ties such as 1125899906842624.25
    among them, are the fallback, about 1 % of random doubles. A y that
    rounds to 1e17 gives n = 1e16 at e + 1. A first guess of e one too low
    leaves y at least 1e17 - 0.011, so it moves e up or rounds to 1e17, and
    both give the right digits. Where long double is not x87, every value
    is the fallback.
    """
    if not _LONG_DOUBLE_IS_X87:
        return np.zeros(a.shape, np.int64), np.zeros(a.shape, np.intp), np.ones(a.shape, bool)
    scale = _tables()[0]
    e = np.floor((np.frexp(a)[1] - 1) * math.log10(2)).astype(np.intp)
    al = a.astype(np.longdouble)
    e += al * scale[e - _E_MIN] >= 1e17
    y = al * scale[e - _E_MIN]
    n = np.rint(y)
    fallback = 0.5 - np.abs(y - n) <= y * _BOUND  # the left side is exact
    n = n.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    e[a == 0] = 0
    return n, e, fallback


_LEAD, _DIGITS, _EXP, _TAIL = 1, 6, 40, 45  # a cell's byte columns after its sign
# A cell's shape: the exponents -4..16 written without one, four written with one
# (from 0, below 0, from 100, to -100), and a fallback value.
_FIXED, _SHAPES = 21, 26


@functools.cache
def _templates(sep: str, is_complex: bool):
    """Every cell's bytes but its digits, as 8-byte words, and its length.

    A cell is one double. Its code is ((slot * 3 + sign) * _SHAPES + shape)
    * 17 + significant - 1: slot 0 is a real part followed by its
    imaginary part, 1 a cell followed by ``sep``, 2 the row's last cell;
    sign 0 is none, 1 "-" and 2 "+"; significant counts the digits left
    when trailing zeros are dropped. Its bytes are, at fixed columns: the
    sign (NUL for a fallback value, which ``_format_batch`` replaces),
    "0.000", the 17 digits each followed by a decimal point, "e", the
    exponent's sign and three digits, then "j" for an imaginary part and
    the separator. A byte that '%.17g' does not write is 0xFF, and a digit
    is 0, for the caller to OR in.
    """
    slot, sign, shape, significant = (g.reshape(-1, 1) for g in np.meshgrid(
        np.arange(3), np.arange(3), np.arange(_SHAPES), np.arange(1, 18), indexing="ij"))
    tails = [b"", b"j"[:is_complex] + sep.encode("ascii"), b"j"[:is_complex] + b"\n"]
    words = -(-(_TAIL + max(map(len, tails))) // 8)  # whole 8-byte words per cell
    t = np.full((slot.size, 8 * words), 0xFF, np.uint8)
    fixed, fallback = shape < _FIXED, shape == _SHAPES - 1
    e = np.where(fixed, shape - 4, 0)
    t[:, :1] = np.select([fallback, sign == 1, sign == 2], [0, ord("-"), ord("+")], 0xFF)
    lead = np.frombuffer(b"0.000", np.uint8)
    t[:, _LEAD:_DIGITS] = np.where(fixed & (np.arange(5) < 1 - e) & (e < 0), lead, 0xFF)
    i, number = np.arange(17), ~fallback
    shown = np.maximum(significant, np.where(fixed, e + 1, 0))  # 1e16 shows 17 digits
    t[:, _DIGITS:_EXP:2] = np.where(number & (i < shown), 0, 0xFF)
    t[:, _DIGITS + 1:_EXP:2] = np.where(number & (i == e) & (significant > e + 1), ord("."), 0xFF)
    scientific = number & ~fixed
    exp_sign = np.where(shape % 2 == _FIXED % 2, ord("+"), ord("-"))  # _FIXED + 1 and + 3 are below 0
    exp = np.hstack([np.full_like(exp_sign, ord("e")), exp_sign, np.zeros((slot.size, 3), np.uint8)])
    t[:, _EXP:_TAIL] = np.where(scientific & ((np.arange(5) != 2) | (shape >= _FIXED + 2)), exp, 0xFF)
    for s, tail in enumerate(tails):
        t[slot[:, 0] == s, _TAIL:_TAIL + len(tail)] = np.frombuffer(tail, np.uint8)
    t.flags.writeable = False  # shared by every caller
    return t.view(np.uint64), (t != 0xFF).sum(axis=1)


def _format_batch(table, sep: str):
    """The lines of one batch: see ``fmt_rows``.

    Each double is a cell of fixed byte columns (``_templates``): a table
    lookup by its code gives every byte but its digits, which are ORed in
    four at a time, and one ``bytes.translate`` drops the 0xFF bytes of
    the whole batch. A fallback value leaves a NUL, which its ``fmt_float``
    text replaces in the line.
    """
    is_complex = table.dtype.kind == "c"
    x = (table.view(table.real.dtype) if is_complex else table).astype(np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        fmt_float(x[~finite][0])  # raises
    c = x.shape[1]
    slot, plus = np.ones(c, np.intp), np.zeros(c, bool)
    if is_complex:
        x[:, 1::2] += 0.0  # an imaginary -0.0 writes as +0j
        slot[::2] = 0
        plus[1::2] = True
    slot[-1:] = 2
    n, e, fallback = _significands(np.abs(x))
    _, quads, heads, exps, zeros = _tables()
    hi, lo = np.divmod(n % 10**16, 10**8)
    groups = (hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)
    trailing, run = 0, True
    for q in reversed(groups):
        trailing = trailing + run * zeros[q]
        run = run & (q == 0)
    shape = np.where((e >= -4) & (e < 17), e + 4, _FIXED + (e < 0) + 2 * (np.abs(e) >= 100))
    shape[fallback] = _SHAPES - 1
    sign = np.where(np.signbit(x), 1, 2 * plus)
    code = ((slot * 3 + sign) * _SHAPES + shape) * 17 + 16 - trailing

    words, length = _templates(sep, is_complex)
    cells = words.take(code, axis=0)
    cells[..., 0] |= heads[n // 10**16]
    for j, q in enumerate(groups, 1):
        cells[..., j] |= quads[q]
    cells[..., _EXP // 8] |= exps[np.abs(e)]

    text = cells.tobytes().translate(None, b"\xff").decode("ascii")
    signed = plus[np.nonzero(fallback)[1]].tolist()
    fills = iter([("+" if p and v >= 0 else "") + fmt_float(v)
                  for v, p in zip(x[fallback].tolist(), signed)])
    start = 0
    for end in np.cumsum(length.take(code).sum(axis=1)).tolist():
        line = text[start:end]
        if "\0" in line:
            head, *rest = line.split("\0")
            line = head + "".join(next(fills) + part for part in rest)
        yield line
        start = end


def _render(obj, level: int) -> str:
    pad = " " * (2 * (level + 1))
    close = " " * (2 * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_render(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}{_render(v, level + 1)}" for v in obj)
        return "[\n" + items + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a JSON document with 17-significant-digit floats.

    The stdlib encoder formats floats with repr, which is shortest-form;
    this renderer pins the documented 17g format instead. Key order is
    preserved, so output is byte-stable for a fixed input structure.
    """
    return _render(obj, 0) + "\n"
