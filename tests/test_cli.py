import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specparity as sp
from specparity.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_solve_harmonic_prints_ground_energy(tmp_path, capsys):
    code = run_cli(
        ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 799, "--out", tmp_path]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("E[")]
    assert len(lines) == 10
    e0 = float(lines[0].split("=")[1])
    assert abs(e0 - 1.0) <= 1e-3
    body = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert body[0] == "n,E"
    assert len(body) == 800
    k, e = body[1].split(",")
    assert k == "0" and float(e) == pytest.approx(e0, abs=1e-9)


def test_solve_polynomial_prints_ascending_energies(tmp_path, capsys):
    code = run_cli(
        ["solve", "--poly", "0,0,0,1,1", "--xmin", -10, "--xmax", 10, "--n", 299, "--out", tmp_path]
    )
    assert code == 0
    values = [
        float(l.split("=")[1]) for l in capsys.readouterr().out.splitlines() if l.startswith("E[")
    ]
    assert len(values) == 10
    assert all(a < b for a, b in zip(values, values[1:]))


def test_solve_save_modes(tmp_path):
    code = run_cli(
        ["solve", "--potential", "harmonic", "--xmin", -6, "--xmax", 6, "--n", 49,
         "--out", tmp_path, "--save-modes"]
    )
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("n,E,phi_0")
    assert len(lines[1].split(",")) == 51


def test_solve_save_modes_writes_the_phi_columns_byte_for_byte(tmp_path):
    # oracle: the whole phi = modes / sqrt(h) array, formatted column by column
    code = run_cli(
        ["solve", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10, "--n", 99,
         "--out", tmp_path, "--save-modes"]
    )
    assert code == 0
    s = sp.solve(sp.assemble(sp.named("quartic_cubic"), sp.make_grid(-10, 10, 99)))
    phi = s.modes / np.sqrt(s.grid.h)
    lines = ["n,E," + ",".join(f"phi_{i}" for i in range(99))]
    for k in range(99):
        cells = [str(k), format(float(s.energies[k]), ".17g")]
        cells += [format(float(x), ".17g") for x in phi[:, k]]
        lines.append(",".join(cells))
    assert (tmp_path / "spectrum.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_cli_start_up_does_not_import_scipy(tmp_path):
    probe = (
        "import sys\n"
        "from specparity import cli\n"
        "cli.build_config(cli._build_parser().parse_args(sys.argv[1:]))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe, "verify", "--potential", "harmonic", "--xmin", "-8",
         "--xmax", "8", "--n", "99", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_solve_rejects_tiny_grid(tmp_path, capsys):
    code = run_cli(
        ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 1, "--out", tmp_path]
    )
    assert code == 2


def test_usage_error_exits_2(tmp_path):
    assert run_cli(["solve", "--no-such-flag"]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["solve", "--xmin", -8, "--xmax", 8, "--n", 99, "--out", tmp_path]) == 2
    base = ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49, "--out", tmp_path]
    assert run_cli(base + ["--jobs", 0]) == 2
    assert run_cli(base + ["--truncate", "0"]) == 2
    assert run_cli(base + ["--truncate", "some"]) == 2
    assert run_cli(base + ["--poly", "0,0,1"]) == 2  # both potential flags


@pytest.mark.parametrize("command", ["solve", "export-kernel"])
def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, command):
    # exit 1 means "verification failed"; an unexpected error must not look like it
    def out_of_memory(hm):
        raise MemoryError("simulated allocation failure")

    monkeypatch.setattr("specparity.cli.solve", out_of_memory)
    code = run_cli(
        [command, "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49, "--out", tmp_path]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError") and "simulated allocation failure" in err


def test_truncate_full_keyword(tmp_path):
    code = run_cli(
        ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 49, "--truncate", "full", "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "kernel_P.csv").read_text().splitlines()
    kernel = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    sv = np.linalg.svd(kernel, compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]  # full-rank kernel


# What an installed console-script wrapper does: load the declared entry point
# and exit with its result, with argv[0] set to the command name.
_CONSOLE_WRAPPER = """
import sys
from importlib.metadata import EntryPoint
value = sys.argv[1]
sys.argv = ["specparity", "--help"]
sys.exit(EntryPoint(name="specparity", value=value, group="console_scripts").load()())
"""


def test_console_script_is_installed(tmp_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "specparity" in scripts, "pyproject.toml declares no specparity console script"

    # run the package the suite imported, not whatever else is installed
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _CONSOLE_WRAPPER, scripts["specparity"]],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert "solve" in out.stdout and "export-kernel" in out.stdout
    # the usage line lists the subcommands as {a,b,...}; the description also says "verify"
    listed = re.search(r"\{([^}]*)\}", out.stdout)
    assert listed and {"solve", "verify", "sweep", "export-kernel"} <= set(listed.group(1).split(","))


@pytest.mark.skipif(shutil.which("specparity") is None, reason="specparity is not installed on PATH")
def test_console_script_on_path_runs():
    exe = shutil.which("specparity")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "solve" in out.stdout and "export-kernel" in out.stdout


def test_verify_quartic_cubic_writes_passing_report(tmp_path, capsys):
    code = run_cli(
        ["verify", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10, "--n", 199, "--out", tmp_path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is True
    assert doc["potential"] == {"named": "quartic_cubic"}
    assert all(entry["pass"] for entry in doc["checks"])


def test_verify_harmonic_reports_reflection_pass(tmp_path):
    code = run_cli(
        ["verify", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 199, "--out", tmp_path]
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    refl = next(e for e in doc["checks"] if e["name"] == "reflection_reduction")
    assert refl["applicable"] is True
    assert refl["pass"] is True
    assert refl["residual"] <= 1e-6


def test_verify_unreachable_tolerance_exits_1(tmp_path, capsys):
    code = run_cli(
        ["verify", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 99,
         "--out", tmp_path, "--tol", "parity_involution=1e-20"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is False


def test_verify_rejects_unknown_tolerance(tmp_path):
    code = run_cli(
        ["verify", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 99,
         "--out", tmp_path, "--tol", "bogus=1e-3"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag", ["completeness=inf", "completeness=nan", "completeness=0", "completeness=-1e-3", "completeness=abc"]
)
def test_verify_rejects_a_bad_tolerance_flag(tmp_path, flag):
    code = run_cli(
        ["verify", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 99,
         "--out", tmp_path, "--tol", flag]
    )
    assert code == 2
    assert not (tmp_path / "report.json").exists()


# 1e400 parses as inf; "abc" and true are no reals
@pytest.mark.parametrize("value", ["abc", 1e400, 0, -1e-3, True, None, [1e-3]])
def test_verify_rejects_a_bad_config_tolerance_before_solving(tmp_path, capsys, monkeypatch, value):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"suite": {"tolerances": {"completeness": value}}}).replace("Infinity", "1e400"))
    monkeypatch.setattr(sp.verify, "solve", None)  # a solve would raise TypeError, exit 3
    code = run_cli(
        ["verify", "--config", cfg, "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 99, "--out", tmp_path]
    )
    assert code == 2
    assert "completeness" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_verify_rejects_an_unknown_config_tolerance(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"suite": {"tolerances": {"bogus": 1e-3}}}))
    code = run_cli(
        ["verify", "--config", cfg, "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 99, "--out", tmp_path]
    )
    assert code == 2


@pytest.mark.parametrize("spacings", ["0,0.1,0.2", "0.2,0.1,-0.05", "0.2,0.1,inf", "0.2,0.1,nan"])
def test_sweep_rejects_a_bad_spacing_flag(tmp_path, spacings):
    code = run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-h", spacings, "--out", tmp_path]
    )
    assert code == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("last", [0, -0.05, 1e400, "0.05", None, True])
def test_sweep_rejects_a_bad_config_spacing(tmp_path, capsys, last):
    cfg = tmp_path / "exp.json"
    doc = {"potential": {"named": "harmonic"}, "grid": {"x_min": -8, "x_max": 8},
           "sweep": {"h_values": [0.2, 0.1, last]}}
    cfg.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 2
    assert "sweep spacing" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_verify_reports_are_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            ["verify", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
             "--n", 199, "--out", out]
        ) == 0

    def stable(path):
        doc = json.loads(path.read_text())
        for entry in doc["checks"]:
            entry.pop("seconds")  # documented-unstable field
        doc.pop("timings")  # documented-unstable block
        return json.dumps(doc, sort_keys=True)

    assert stable(out_a / "report.json") == stable(out_b / "report.json")


def test_verify_omega_branch_flag(tmp_path):
    code = run_cli(
        ["verify", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
         "--n", 199, "--out", tmp_path, "--omega-branch", "-"]
    )
    assert code == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "potential": {"poly": [0, 0, 0, 1, 1]},
        "grid": {"x_min": -10, "x_max": 10, "n": 199},
        "suite": {"omega_branch": "+", "tolerances": {"reflection_reduction": 1e-5}},
        "out": str(tmp_path / "from_file"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["verify", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "from_file" / "report.json").read_text())
    assert doc["grid"]["n"] == 199
    # flag overrides the file's n
    assert run_cli(["verify", "--config", cfg_path, "--n", 299, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["grid"]["n"] == 299
    assert doc["potential"] == {"poly": [0.0, 0.0, 0.0, 1.0, 1.0]}


def test_config_file_must_be_valid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["verify", "--config", bad]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["verify", "--config", missing]) == 2


def test_sweep_harmonic_observed_order(tmp_path, capsys):
    code = run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-n", "199,399,799", "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["n"] for r in rows] == ["199", "399", "799"]
    for row in rows[1:]:
        assert 1.8 <= float(row["order0"]) <= 2.2
    assert rows[0]["order0"] == ""
    # reflection residual is recorded for the even potential
    for row in rows:
        assert float(row["reflection_residual"]) <= 1e-6


def test_sweep_quartic_cubic_order_via_h_values(tmp_path):
    code = run_cli(
        ["sweep", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
         "--sweep-h", "0.1,0.05,0.025", "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["n"] for r in rows] == ["199", "399", "799"]
    for row in rows[1:]:
        assert 1.8 <= float(row["order0"]) <= 2.2
    assert rows[0]["reflection_residual"] == ""


def test_sweep_records_truncated_kernel_residual(tmp_path):
    code = run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-n", "99,199,399", "--truncate", "40", "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for row in rows:
        assert row["trunc_m"] == "40"
        assert float(row["trunc_residual"]) > 1e-3  # 40-mode kernel is far from J


def test_sweep_without_a_2to1_pair_falls_back_to_finest(tmp_path, capsys):
    code = run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-n", "149,249,349", "--out", tmp_path]
    )
    assert code == 0
    assert "finest-grid reference" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert float(rows[-1]["err0"]) == 0.0  # finest grid is its own reference
    assert rows[-1]["order0"] == ""


def test_sweep_requires_three_points(tmp_path):
    code = run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-n", "199,399", "--out", tmp_path]
    )
    assert code == 2


def test_sweep_parallel_output_matches_serial(tmp_path):
    for label, jobs in (("serial", 1), ("parallel", 3)):
        assert run_cli(
            ["sweep", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
             "--sweep-n", "99,199,399", "--jobs", jobs, "--out", tmp_path / label]
        ) == 0
    assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
        tmp_path / "parallel" / "sweep.csv"
    ).read_bytes()


def test_export_kernel_harmonic_matches_reflection(tmp_path):
    code = run_cli(
        ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 199, "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "kernel_P.csv").read_text().splitlines()
    grid = sp.make_grid(-8, 8, 199)
    header = np.array([float(tok) for tok in lines[0].split(",")])
    np.testing.assert_array_equal(header, grid.points)
    kernel = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    action = kernel * grid.h
    assert np.abs(action - np.eye(199)[::-1]).max() <= 1e-6


def test_export_kernel_is_symmetric_for_quartic_cubic(tmp_path):
    code = run_cli(
        ["export-kernel", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
         "--n", 199, "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "kernel_P.csv").read_text().splitlines()
    kernel = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert np.abs(kernel - kernel.T).max() <= 1e-11 / sp.make_grid(-10, 10, 199).h


def test_export_truncated_kernel_has_numerical_rank_m(tmp_path):
    code = run_cli(
        ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 199, "--truncate", 50, "--out", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "kernel_P.csv").read_text().splitlines()
    kernel = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    sv = np.linalg.svd(kernel, compute_uv=False)
    assert sv[50] <= 1e-8 * sv[0]


def test_export_both_kernels_txt_matches_csv(tmp_path):
    code = run_cli(
        ["export-kernel", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
         "--n", 49, "--kernels", "P,Q", "--out", tmp_path]
    )
    assert code == 0
    q_lines = (tmp_path / "kernel_Q.csv").read_text().splitlines()
    q_csv = np.array([[complex(tok) for tok in line.split(",")] for line in q_lines[1:]])
    q_txt = np.array(
        [
            [complex(tok) for tok in line.split()]
            for line in (tmp_path / "kernel_Q.txt").read_text().splitlines()
        ]
    )
    np.testing.assert_array_equal(q_csv, q_txt)
    cube = np.linalg.matrix_power(q_csv * sp.make_grid(-10, 10, 49).h, 3)
    assert np.abs(cube - np.eye(49)).max() <= 1e-10


def test_export_of_an_overflowing_kernel_exits_2_and_leaves_no_files(tmp_path, monkeypatch):
    # a finite action whose kernel A/h overflows to inf on a fine grid
    def overflowing(spectrum, truncate=None):
        return sp.OperatorKernel(grid=spectrum.grid, action=np.full((99, 99), 1e307))

    monkeypatch.setattr("specparity.cli.build_parity", overflowing)
    with np.errstate(over="ignore"):
        code = run_cli(
            ["export-kernel", "--potential", "harmonic", "--xmin", -1, "--xmax", 1,
             "--n", 99, "--out", tmp_path]
        )
    assert code == 2
    assert list(tmp_path.iterdir()) == []
