"""Every valid confining polynomial ends ``verify``, ``solve`` and ``sweep`` in one of their documented ways.

The suite passes (exit 0), a named check fails (exit 1), or a typed error
is reported on an ``error:`` line (exit 2 or 3), never with a traceback.
Each warning of a written report names a check that failed in it.
A sweep writes the same ``sweep.csv`` bytes whatever ``--jobs`` says. The
same holds for widths, centres and coefficients of any magnitude a double
can hold, where an input error (exit 2) leaves no output directory.
"""
import contextlib
import io
import json
import operator

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
    code, err = _run([*args, f"--out={out}"])
    _assert_documented(code, err)
    if code in (0, 1):  # every warning explains a failed check; a failing node audit says where
        doc = json.loads((out / "report.json").read_text())
        failed = {c["name"] for c in doc["checks"] if not c["pass"]}
        warnings = doc.get("warnings", [])
        assert all(w.partition(":")[0] in failed for w in warnings), (args, warnings)
        warned = [w for w in warnings if w.startswith("node_count:")]
        assert len(warned) == ("node_count" in failed), (args, warned)


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


MAGNITUDE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)  # log-uniform in [1e-300, 1e300]
SIGNED_MAGNITUDE = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), MAGNITUDE)


@st.composite
def magnitude_args(draw):
    """A command on a confining polynomial whose width, centre and coefficients span the double range."""
    degree = draw(st.sampled_from([2, 4, 6, 8]))
    coeffs = [draw(st.one_of(st.just(0.0), SIGNED_MAGNITUDE)) for _ in range(degree)]
    coeffs.append(draw(MAGNITUDE))  # positive leading coefficient: confining
    width = draw(MAGNITUDE)
    centre = draw(st.one_of(
        st.just(0.0),
        st.floats(-0.5, 0.5).map(lambda fraction: fraction * width),  # the domain holds the origin
        SIGNED_MAGNITUDE,
    ))
    flags = [f"--poly={','.join(map(repr, coeffs))}",
             f"--xmin={centre - width / 2!r}", f"--xmax={centre + width / 2!r}"]
    command = draw(st.sampled_from(["verify", "solve", "sweep"]))
    if command == "sweep":
        sizes = draw(st.lists(st.integers(2, 60), min_size=3, max_size=3, unique=True))
        return [command, *flags, f"--sweep-n={','.join(map(str, sizes))}"]
    return [command, *flags, f"--n={draw(st.integers(2, 60))}"]


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=magnitude_args())
def test_inputs_of_any_magnitude_end_in_a_documented_exit(tmp_path_factory, args):
    out = tmp_path_factory.mktemp("magnitude") / "out"
    code, err = _run([*args, f"--out={out}"])
    _assert_documented(code, err, passing=(0, 1) if args[0] == "verify" else (0,))
    if code == 2:  # an input error is found before the output directory is made
        assert not out.exists(), (args, err)
