"""Every valid confining polynomial ends ``verify`` in one of its documented ways.

The suite passes (exit 0), a named check fails (exit 1), or a typed error
is reported on an ``error:`` line (exit 2 or 3), never with a traceback.
"""
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specparity.cli import main

COEFFICIENT = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def verify_args(draw):
    degree = draw(st.sampled_from([2, 4, 6, 8]))
    coeffs = draw(st.lists(COEFFICIENT, min_size=degree, max_size=degree))
    if draw(st.booleans()):  # an even V, which a symmetric domain folds
        coeffs[1::2] = [0.0] * len(coeffs[1::2])
    coeffs.append(draw(st.floats(0.01, 5.0)))  # positive leading coefficient: confining
    if draw(st.booleans()):
        x_max = draw(st.floats(0.5, 50.0))
        x_min = -x_max
    else:
        x_min = draw(st.floats(-50.0, 25.0))
        x_max = x_min + draw(st.floats(0.5, 75.0))
    n = draw(st.integers(2, 200))
    poly = ",".join(repr(c) for c in coeffs)
    # --poly=: argparse would read a leading '-' of a separate value as an option
    return ["verify", f"--poly={poly}", f"--xmin={x_min!r}", f"--xmax={x_max!r}", f"--n={n}"]


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=verify_args())
def test_verify_ends_in_a_documented_exit(tmp_path_factory, args):
    out = tmp_path_factory.getbasetemp() / "property"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*args, f"--out={out}"])
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1) or (code in (2, 3) and err.startswith("error: ")), (code, err)
