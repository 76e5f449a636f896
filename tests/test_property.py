"""Every valid confining polynomial ends ``verify`` and ``sweep`` in one of their documented ways.

The suite passes (exit 0), a named check fails (exit 1), or a typed error
is reported on an ``error:`` line (exit 2 or 3), never with a traceback.
A sweep writes the same ``sweep.csv`` bytes whatever ``--jobs`` says.
"""
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specparity.cli import main

COEFFICIENT = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def _confining_domain(draw):
    """--poly= and the domain flags of a confining polynomial on a drawn interval."""
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
    poly = ",".join(repr(c) for c in coeffs)
    # --poly=: argparse would read a leading '-' of a separate value as an option
    return [f"--poly={poly}", f"--xmin={x_min!r}", f"--xmax={x_max!r}"]


@st.composite
def verify_args(draw):
    domain = _confining_domain(draw)
    return ["verify", *domain, f"--n={draw(st.integers(2, 200))}"]


@st.composite
def sweep_args(draw):
    domain = _confining_domain(draw)
    sizes = draw(st.lists(st.integers(2, 200), min_size=3, max_size=4, unique=True))
    return ["sweep", *domain, f"--sweep-n={','.join(map(str, sizes))}"]


def _run(argv):
    """main(argv) with its output captured: the exit code and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _assert_documented(code, err, passing=(0, 1)):
    assert "Traceback" not in err
    assert code in passing or (code in (2, 3) and err.startswith("error: ")), (code, err)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=verify_args())
def test_verify_ends_in_a_documented_exit(tmp_path_factory, args):
    out = tmp_path_factory.getbasetemp() / "property"
    _assert_documented(*_run([*args, f"--out={out}"]))


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=sweep_args())
def test_sweep_ends_in_a_documented_exit_whatever_the_jobs(tmp_path_factory, args):
    outs = []
    for jobs in (1, 2, 3):
        out = tmp_path_factory.getbasetemp() / f"sweep-jobs{jobs}"
        (out / "sweep.csv").unlink(missing_ok=True)
        code, err = _run([*args, f"--jobs={jobs}", f"--out={out}"])
        _assert_documented(code, err, passing=(0,))
        outs.append((code, err, (out / "sweep.csv").read_bytes() if code == 0 else None))
    assert outs[1:] == outs[:1] * 2, args
