"""Deterministic text serialization.

Every float written by this package is formatted as 17 significant digits
(round-trip exact), so identical runs produce byte-identical CSV and JSON
artifacts. ``fmt_float`` carries that contract for single values and
``fmt_rows`` for whole tables, one row per line; both reject non-finite
values.
"""
from __future__ import annotations

import json
import math
import numbers


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
    it writes as ``+0j``. Each row is checked before it is formatted, and a
    non-finite value raises ``fmt_float``'s ValueError. Rows are converted
    one at a time, so the table is never held as Python floats or strings.
    """
    line = None
    for row in rows:
        is_complex = row.dtype.kind == "c"
        for part in (row.real, row.imag) if is_complex else (row,):
            for x in (part.min(), part.max()):
                fmt_float(x)  # raises on inf; min and max propagate nan
        if line is None:
            cell = "%.17g%+.17gj" if is_complex else "%.17g"
            line = sep.join([cell] * row.size) + "\n"
        yield line % tuple(_re_im_pairs(row) if is_complex else row.tolist())


def _re_im_pairs(row) -> list:
    pairs = row.copy().view(row.real.dtype)  # re0, im0, re1, im1, ...
    pairs[1::2] += 0.0
    return pairs.tolist()


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
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
            f"{pad}{json.dumps(str(k))}: {_render(v, indent, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}{_render(v, indent, level + 1)}" for v in obj)
        return "[\n" + items + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Render a JSON document with 17-significant-digit floats.

    The stdlib encoder formats floats with repr, which is shortest-form;
    this renderer pins the documented 17g format instead. Key order is
    preserved, so output is byte-stable for a fixed input structure.
    """
    return _render(obj, indent, 0) + "\n"
