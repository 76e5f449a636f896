import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
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


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_potential_header_prints_plain_numbers(tmp_path, capsys, command):
    code = run_cli([command, "--poly", "0,0,1", "--xmin", -8, "--xmax", 8, "--n", 199, "--out", tmp_path])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "# potential {'poly': [0.0, 0.0, 1.0]} grid (-8.0, 8.0, n=199)"


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


def test_verify_does_not_import_scipy_sparse(tmp_path):
    # the gap's Lanczos is the package's own, so scipy.sparse (and ARPACK) stay unloaded
    probe = (
        "import sys\n"
        "from specparity import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe, "verify", "--potential", "harmonic", "--xmin", "-8",
         "--xmax", "8", "--n", "99", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "0 []"


def test_solve_rejects_tiny_grid(tmp_path, capsys):
    code = run_cli(
        ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 1, "--out", tmp_path]
    )
    assert code == 2


def test_usage_error_exits_2(tmp_path, capsys):
    assert run_cli(["solve", "--no-such-flag"]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["solve", "--xmin", -8, "--xmax", 8, "--n", 99, "--out", tmp_path]) == 2
    base = ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49, "--out", tmp_path]
    assert run_cli(base + ["--poly", "0,0,1"]) == 2  # both potential flags
    capsys.readouterr()
    # each value goes to a command that reads the flag, so its value check, not argparse, refuses it
    for argv, check in (
        ([*VALID_ARGV["sweep"], "--jobs", 0], "error: --jobs must be >= 1"),
        ([*VALID_ARGV["sweep"], "--truncate", "0"], "error: --truncate must be >= 1"),
        ([*VALID_ARGV["export-kernel"], "--truncate", "some"], "error: --truncate / suite.truncate"),
    ):
        assert run_cli([*argv, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(check) and "unrecognized arguments" not in err


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


def test_a_named_potential_and_its_polynomial_write_the_same_checks(tmp_path):
    checks = []
    for i, spec in enumerate((["--potential", "quartic_cubic"], ["--poly=0,0,0,1,1"])):
        out = tmp_path / str(i)
        assert run_cli(["verify", *spec, "--xmin", -10, "--xmax", 10, "--n", 199, "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        for entry in doc["checks"]:
            entry.pop("seconds")  # documented-unstable field
        checks.append(doc["checks"])
    assert checks[0] == checks[1]


def test_verify_omega_branch_flag(tmp_path, monkeypatch):
    # the branch reaches every triparity build, of the suite and of the export
    build, branches = sp.operators.build_triparity, []

    def spy(s, branch=+1, truncate=None):
        branches.append(branch)
        return build(s, branch, truncate)

    monkeypatch.setattr(sp.operators, "build_triparity", spy)
    argv = ["--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10, "--n", 199, "--omega-branch", "-"]
    assert run_cli(["verify", *argv, "--out", tmp_path / "verify"]) == 0
    assert run_cli(["export-kernel", *argv, "--kernels", "Q", "--out", tmp_path / "export"]) == 0
    assert branches == [-1, -1]
    spectrum = sp.solve(sp.assemble(sp.named("quartic_cubic"), sp.make_grid(-10, 10, 199)))
    expected = build(spectrum, -1).kernel
    exported = np.loadtxt(tmp_path / "export" / "kernel_Q.csv", delimiter=",", skiprows=1, dtype=complex)
    assert np.array_equal(exported, expected)
    assert np.array_equal(expected, build(spectrum, +1).kernel.conj())  # the conjugate of the + branch


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


# One mistake per config file: the command, the file, the flags that would
# hide the file's value and so are left out, and the key the message names.
BAD_CONFIG_TYPES = {
    "suite_a_string": ("verify", {"suite": "x"}, (), "suite"),
    "grid_a_string": ("verify", {"grid": "x"}, (), "grid"),
    "tolerances_a_list": ("verify", {"suite": {"tolerances": [1]}}, (), "suite.tolerances"),
    "sweep_a_string": ("sweep", {"sweep": "n_values"}, ("--n",), "sweep"),
    "n_values_a_string": ("sweep", {"sweep": {"n_values": "49,99,199"}}, ("--n",), "sweep.n_values"),
    "n_values_entry_a_float": ("sweep", {"sweep": {"n_values": [49, 99.9, 199]}}, ("--n",), "sweep.n_values"),
    "h_values_a_number": ("sweep", {"sweep": {"h_values": 0.1}}, ("--n",), "sweep.h_values"),
    "n_values_and_h_values": (
        "sweep", {"sweep": {"n_values": [49, 99, 199], "h_values": [0.1, 0.05, 0.025]}}, ("--n",), "h_values"
    ),
    "n_a_float": ("solve", {"grid": {"n": 9.7}}, ("--n",), "grid.n"),
    "n_a_bool": ("solve", {"grid": {"n": True}}, ("--n",), "grid.n"),
    "n_a_string": ("solve", {"grid": {"n": "9"}}, ("--n",), "grid.n"),
    "x_min_a_list": ("verify", {"grid": {"x_min": [1]}}, ("--xmin",), "grid.x_min"),
    "x_min_a_bool": ("verify", {"grid": {"x_min": True}}, ("--xmin",), "grid.x_min"),
    "x_min_a_string": ("verify", {"grid": {"x_min": "-8"}}, ("--xmin",), "grid.x_min"),
    "jobs_a_float": ("sweep", {"jobs": 2.5, "sweep": {"n_values": [49, 99, 199]}}, ("--n",), "jobs"),
    "truncate_a_float": ("verify", {"suite": {"truncate": 5.5}}, (), "suite.truncate"),
    "omega_branch_zero": ("verify", {"suite": {"omega_branch": 0}}, (), "suite.omega_branch"),
    "omega_branch_false": ("verify", {"suite": {"omega_branch": False}}, (), "suite.omega_branch"),
    "save_modes_a_string": ("solve", {"save_modes": "false"}, (), "save_modes"),
    "kernels_a_string": ("export-kernel", {"kernels": "PQ"}, (), "kernels"),
    "kernels_a_string_with_a_bad_letter": ("export-kernel", {"kernels": "PQR"}, (), "kernels"),
    "kernels_entry_a_number": ("export-kernel", {"kernels": [1]}, (), "kernels"),
    "out_a_number": ("solve", {"out": 5}, ("--out",), "out"),
    "out_null": ("solve", {"out": None}, ("--out",), "out"),
    "out_a_list": ("solve", {"out": ["a"]}, ("--out",), "out"),
    "named_a_list": ("solve", {"potential": {"named": ["harmonic"]}}, ("--potential",), "potential.named"),
    "poly_entry_an_object": ("solve", {"potential": {"poly": [0, 0, {"a": 1}]}}, ("--potential",), "potential.poly"),
    "poly_entry_a_bool": ("solve", {"potential": {"poly": [0, 0, True]}}, ("--potential",), "potential.poly"),
    "poly_entry_a_string": ("solve", {"potential": {"poly": [0, 0, "1"]}}, ("--potential",), "potential.poly"),
    "unknown_key": ("solve", {"jbos": 2}, (), "'jbos'"),
    "unknown_grid_key": ("verify", {"grid": {"xmin": -8}}, ("--xmin",), "'xmin'"),
    "misspelt_tolerances": ("verify", {"suite": {"tolerance": {"parity_involution": 1e-20}}}, (), "'tolerance'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_TYPES))
def test_config_of_the_wrong_json_type_exits_2_before_solving(tmp_path, capsys, monkeypatch, case):
    command, doc, omitted, key = BAD_CONFIG_TYPES[case]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(sp.cli, "solve", None)  # a solve would raise TypeError, exit 3
    monkeypatch.setattr(sp.verify, "solve", None)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)  # a file's bad "out" must not fall back to the working directory
    flags = {"--potential": "harmonic", "--xmin": -8, "--xmax": 8, "--n": 49, "--out": out}
    argv = [x for flag, value in flags.items() if flag not in omitted for x in (flag, value)]
    assert run_cli([command, "--config", cfg, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err
    assert "'R'" not in err  # the message quotes what the file holds
    assert not any(out.iterdir())


def test_config_kernels_list_and_save_modes_are_honoured(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kernels": ["Q"], "save_modes": True}))
    flags = ["--config", cfg, "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 9, "--out", tmp_path]
    assert run_cli(["export-kernel", *flags]) == 0
    assert sorted(p.name for p in tmp_path.glob("kernel_*")) == ["kernel_Q.csv", "kernel_Q.txt"]
    assert run_cli(["solve", *flags]) == 0
    assert (tmp_path / "spectrum.csv").read_text().startswith("n,E,phi_0,")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--potential", "harmonic", "--xmin", 8, "--xmax", -8, "--n", 9],
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--sweep-n", "49,99,99"],
        ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 9, "--truncate", 20],
        # h*h is 0 at h = 2e-301; at h = 9e-155 1/h**2 is finite but 2/h**2, in T's diagonal, is not
        ["solve", "--poly=0,0,1", "--xmin=-1e-300", "--xmax=1e-300", "--n", 9],
        ["verify", "--poly=0,0,1", "--xmin=-1e-300", "--xmax=1e-300", "--n", 9],
        ["solve", "--poly=0,0,1", "--xmin=-4.5e-153", "--xmax=4.5e-153", "--n", 99],
        ["verify", "--poly=0,0,1", "--xmin=-4.5e-153", "--xmax=4.5e-153", "--n", 99],
        # 2/h**2 and V are finite, and their sum, T's diagonal, is not
        ["solve", "--poly=1.5e308,0,1", "--xmin=-7.5e-153", "--xmax=7.5e-153", "--n", 99],
        ["verify", "--poly=1.5e308,0,1", "--xmin=-7.5e-153", "--xmax=7.5e-153", "--n", 99],
    ],
    ids=["reversed_domain", "two_distinct_sweep_sizes", "truncate_above_n", "h2_underflows_solve",
         "h2_underflows_verify", "2_over_h2_overflows_solve", "2_over_h2_overflows_verify",
         "diagonal_overflows_solve", "diagonal_overflows_verify"],
)
def test_input_errors_exit_2_before_the_output_directory_is_made(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(sp.cli, "solve", None)  # a solve would raise TypeError, exit 3
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--poly=1,,0,1", "--xmin=-3", "--xmax=3", "--n", 9], "--poly"),  # not 1 + x^2
    (["sweep", "--potential", "harmonic", "--xmin=-8", "--xmax=8", "--sweep-n", "49,,99,199"], "--sweep-n"),
    (["sweep", "--potential", "harmonic", "--xmin=-8", "--xmax=8", "--sweep-h", "0.1,0.05,"], "--sweep-h"),
    # the same parser reads the one list of names
    (["export-kernel", "--potential", "harmonic", "--xmin=-8", "--xmax=8", "--n", 9, "--kernels", "P,,Q"], "--kernels"),
])
def test_a_number_list_with_an_empty_entry_exits_2_and_names_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} has an empty entry")
    assert not out.exists()


def test_a_non_finite_residual_exits_3_and_names_its_check(tmp_path, capsys):
    # energies near 1.8e308 overflow the propagator's phases E t, so the drift is nan
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["verify", "--poly=1.79e308,0,1", "--xmin=-1", "--xmax=1", "--n", 99, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: verification stage 'conservation_superposition' failed: residual is nan")
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("case", [
    ["--poly=0.0,-0.009999769744141627,7.981434755192005e+30",
     "--xmin=-3.9907173775960026e+30", "--xmax=3.9907173775960026e+30"],
    ["--poly=0,0,1e-300", "--xmin=-1e200", "--xmax=1e200"],  # each (x - 1)^2 overflows
])
def test_a_grid_too_coarse_for_the_clamped_gaussian_ends_in_a_verdict(tmp_path, case):
    # every grid point lies farther than about 38.6 from x = 1, where the
    # conservation check's Gaussian would underflow to a zero vector
    argv = ["verify", *case, "--n=12", "--out", tmp_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(argv) in (0, 1)
    doc = json.loads((tmp_path / "report.json").read_text())
    (gaussian,) = [c for c in doc["checks"] if c["name"] == "conservation_gaussian"]
    assert gaussian["pass"]


@pytest.mark.parametrize("case", [
    ["--potential", "harmonic", "--n", 50],
    ["--poly=0,1e-3,-20,0,1", "--n", 399],
    ["--poly=0,1e-3,-20,0,1", "--n", 999],
], ids=["harmonic-50", "tilted-well-399", "tilted-well-999"])
def test_the_node_audit_counts_the_nodes_where_a_mode_is_tiny(tmp_path, case):
    # mode 1 of the tilted well x^4 - 20x^2 + 1e-3 x changes sign at x = -1.95,
    # where |u| / max|u| is 3.1e-17; a cut at 1e-9 * max|u| read 3 and 16 missing nodes
    assert run_cli(["verify", *case, "--xmin=-8", "--xmax=8", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    (nodes,) = [c for c in doc["checks"] if c["name"] == "node_count"]
    assert nodes["residual"] == 0.0


@pytest.mark.parametrize("case, failing, first", [
    (["--poly=0,0,0,0,0,0,0,0,1", "--xmin=-40", "--xmax=35", "--n=200"], 40, 11),
    (["--poly=0,0,0,1,0,0,0,0,1", "--xmin=-50", "--xmax=50", "--n=999"], 10, 41),
], ids=["x8", "x8+x3"])
def test_a_wide_domain_does_not_make_the_low_gaps_degenerate(tmp_path, capsys, case, failing, first):
    # 40^8 = 6.6e12 on T's diagonal once set the guard of every gap, so gaps
    # of about 3.3 between the lowest modes exited 3 as near-degenerate
    assert run_cli(["verify", *case, "--out", tmp_path]) in (0, 1)
    assert "error:" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "report.json").read_text())
    assert {c["name"] for c in doc["checks"] if not c["pass"]} <= {"node_count"}
    # the modes whose node count is off lie above the grid's kinetic range 4/h^2
    h = doc["grid"]["h"]
    (warning,) = [w for w in doc["warnings"] if w.startswith("node_count:")]
    assert f"{failing} of the 51 audited modes" in warning
    assert f"the first k={first}, " in warning
    assert f"4/h^2 = {4.0 / (h * h):.6g} (a lattice state)" in warning
    assert "a finer grid or a narrower domain" in warning


def test_verify_of_a_huge_t_has_finite_commutator_residuals(tmp_path):
    # ||T||_max = 5e303: the rounding-level entries of A T - T A square past the
    # double range unless they are scaled first
    code = run_cli(["verify", "--poly=0,0,1", "--xmin=-1e-150", "--xmax=1e-150", "--n", 99, "--out", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    for name in ("parity_commutator", "triparity_commutator"):
        entry = next(e for e in doc["checks"] if e["name"] == name)
        assert 0 < entry["residual"] <= 1e-14


VALID_ARGV = {
    "solve": ["solve", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49],
    "verify": ["verify", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49],
    "sweep": ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--sweep-n", "49,99,199"],
    "export-kernel": ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 49],
}
# (command, flag and value) pairs whose flag the command would not read
UNREAD_FLAGS = [
    ("solve", ["--truncate", 20]),
    ("solve", ["--omega-branch", "-"]),
    ("solve", ["--tol", "completeness=1e-3"]),
    ("solve", ["--jobs", 2]),
    ("verify", ["--truncate", 20]),
    ("verify", ["--jobs", 2]),
    ("sweep", ["--n", 49]),
    ("sweep", ["--omega-branch", "-"]),
    ("sweep", ["--tol", "completeness=1e-3"]),
    ("export-kernel", ["--tol", "completeness=1e-3"]),
    ("export-kernel", ["--jobs", 2]),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.setattr(sp.cli, "solve", None)  # a solve would raise TypeError, exit 3
    out = tmp_path / "out"
    assert run_cli([*VALID_ARGV[command], *flag, "--out", out]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    flags = {
        "solve": "--potential --poly --xmin --xmax --n --out --config --save-modes",
        "verify": "--potential --poly --xmin --xmax --n --out --config --omega-branch --tol",
        "sweep": "--potential --poly --xmin --xmax --out --config --truncate --sweep-n --sweep-h --jobs",
        "export-kernel": "--potential --poly --xmin --xmax --n --out --config --truncate --omega-branch --kernels",
    }
    parser = sp.cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        command: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert accepted == {command: set(text.split()) for command, text in flags.items()}


def test_sweep_jobs_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([*VALID_ARGV["sweep"], "--jobs", 0, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: --jobs must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "export-kernel"])
@pytest.mark.parametrize("value", ["0", "some"])
def test_a_bad_truncation_exits_2_before_the_output_directory_is_made(tmp_path, capsys, command, value):
    # the two commands that read --truncate check its value
    out = tmp_path / "out"
    assert run_cli([*VALID_ARGV[command], "--truncate", value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --truncate") and value in err
    assert not out.exists()


def test_sweep_without_sizes_asks_for_sizes_not_for_n(tmp_path, capsys):
    # sweep has no --n flag, so a missing grid is reported as missing sizes
    out = tmp_path / "out"
    assert run_cli(["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--out", out]) == 2
    assert capsys.readouterr().err == "error: sweep needs at least 3 grid sizes (--sweep-n or config)\n"
    assert not out.exists()


def test_sweep_parallel_output_matches_serial(tmp_path):
    for label, jobs in (("serial", 1), ("parallel", 3)):
        assert run_cli(
            ["sweep", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
             "--sweep-n", "99,199,399", "--jobs", jobs, "--out", tmp_path / label]
        ) == 0
    assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
        tmp_path / "parallel" / "sweep.csv"
    ).read_bytes()


def test_sweep_solves_in_the_calling_thread(tmp_path, monkeypatch):
    # --jobs is accepted and checked, but every grid is solved in this thread
    threads = []

    def recording_solve(hm):
        threads.append(threading.get_ident())
        return sp.solve(hm)

    monkeypatch.setattr(sp.cli, "solve", recording_solve)
    assert run_cli(
        ["sweep", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--sweep-n", "49,99,199", "--jobs", 3, "--out", tmp_path]
    ) == 0
    assert threads == [threading.get_ident()] * 3


@pytest.mark.parametrize("name, x_max, truncate, per_grid", [
    ("quartic_cubic", 10, None, []),  # both reflection columns n/a: P is never read
    ("quartic_cubic", 10, 40, [None, 40]),  # ||P_40 - P||
    ("harmonic", 8, None, [None]),  # ||P - J||
    ("harmonic", 8, 40, [None, 40]),  # ||P - J|| and ||P_40 - J||
])
def test_sweep_builds_the_parity_only_for_a_column_that_reads_it(tmp_path, monkeypatch, name, x_max,
                                                                 truncate, per_grid):
    builds = []

    def counting(spectrum, truncate=None):
        builds.append(truncate)
        return sp.build_parity(spectrum, truncate)

    for module in (sp.operators, sp.cli):  # where the library and the command line look it up
        monkeypatch.setattr(module, "build_parity", counting)
    flags = [] if truncate is None else ["--truncate", truncate]
    assert run_cli(
        ["sweep", "--potential", name, "--xmin", -x_max, "--xmax", x_max,
         "--sweep-n", "49,99,199", *flags, "--out", tmp_path]
    ) == 0
    assert builds == per_grid * 3


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


def test_export_formats_each_kernel_row_once(tmp_path, monkeypatch):
    from specparity import operators

    fmt_rows, lines = operators.fmt_rows, []

    def counting(rows, sep):
        for line in fmt_rows(rows, sep):
            lines.append(line)
            yield line

    monkeypatch.setattr(operators, "fmt_rows", counting)
    assert run_cli(
        ["export-kernel", "--potential", "quartic_cubic", "--xmin", -10, "--xmax", 10,
         "--n", 49, "--kernels", "P,Q", "--out", tmp_path]
    ) == 0
    assert len(lines) == 2 * (49 + 1)  # per kernel: the header and 49 rows, each formatted once


def test_export_builds_and_writes_a_repeated_kernel_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counting(spectrum, truncate=None):
        builds.append(truncate)
        return sp.build_parity(spectrum, truncate)

    monkeypatch.setattr(sp.operators, "build_parity", counting)
    assert run_cli(
        ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8,
         "--n", 9, "--kernels", "p,P", "--out", tmp_path]
    ) == 0
    assert builds == [None]
    assert capsys.readouterr().out.count("kernel P written") == 1


def test_export_of_an_overflowing_kernel_exits_2_and_leaves_no_files(tmp_path, monkeypatch):
    # a finite action whose kernel A/h overflows to inf on a fine grid
    def overflowing(spectrum, truncate=None):
        return sp.OperatorKernel(grid=spectrum.grid, action=np.full((99, 99), 1e307))

    monkeypatch.setattr("specparity.operators.build_parity", overflowing)
    with np.errstate(over="ignore"):
        code = run_cli(
            ["export-kernel", "--potential", "harmonic", "--xmin", -1, "--xmax", 1,
             "--n", 99, "--out", tmp_path]
        )
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "empty_flag", "config"])
def test_export_of_an_empty_kernel_list_exits_2_before_the_output_directory_is_made(
    tmp_path, capsys, monkeypatch, source
):
    monkeypatch.setattr(sp.cli, "solve", None)  # a solve would raise TypeError, exit 3
    out = tmp_path / "out"
    argv = ["export-kernel", "--potential", "harmonic", "--xmin", -8, "--xmax", 8, "--n", 5, "--out", out]
    if source == "flag":
        argv += ["--kernels", ","]
    elif source == "empty_flag":
        argv += ["--kernels", ""]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernels": []}))
        argv += ["--config", config]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kernels" in err
    assert not out.exists()


# One row per flag that has a config key: the command, the flag, the key's path
# in the file, the value the flag stands for, and a file value it must replace.
FLAG_AND_KEY = {
    "potential": ("solve", ["--potential", "harmonic"], "potential", {"named": "harmonic"}, {"poly": [0, 0, 0, 1, 1]}),
    "poly": ("solve", ["--poly", "0,0,1"], "potential", {"poly": [0, 0, 1]}, {"named": "quartic_cubic"}),
    "xmin": ("solve", ["--xmin", "-6"], "grid.x_min", -6, -7),
    "xmax": ("solve", ["--xmax", "6"], "grid.x_max", 6, 7.5),
    "n": ("verify", ["--n", "29"], "grid.n", 29, 49),
    "sweep_n": ("sweep", ["--sweep-n", "29,19,49"], "sweep", {"n_values": [29, 19, 49]}, {"h_values": [1, 0.5, 0.25]}),
    "sweep_h": ("sweep", ["--sweep-h", "1,0.5,0.25"], "sweep", {"h_values": [1, 0.5, 0.25]}, {"n_values": [9, 29, 59]}),
    "truncate": ("export-kernel", ["--truncate", "5"], "suite.truncate", 5, 7),
    "truncate_full": ("sweep", ["--truncate", "Full"], "suite.truncate", "full", 3),
    "omega_branch": ("export-kernel", ["--omega-branch", "-"], "suite.omega_branch", "-", "+"),
    "tol": ("verify", ["--tol", "completeness=1e-3"], "suite.tolerances", {"completeness": 1e-3},
            {"completeness": 1e-5}),
    "kernels": ("export-kernel", ["--kernels", "q,P"], "kernels", ["Q", "P"], ["P"]),
    "save_modes": ("solve", ["--save-modes"], "save_modes", True, False),
    "out": ("solve", ["--out", "flagged"], "out", "flagged", "filed"),
}
# every setting, given in the file
BASE_CONFIG = {
    "potential": {"named": "quartic_cubic"},
    "grid": {"x_min": -8, "x_max": 8, "n": 19},
    "suite": {"omega_branch": "+", "truncate": 4, "tolerances": {"orthonormality": 1e-9}},
    "sweep": {"n_values": [9, 19, 39]},
    "out": "results",
}


def _config_with(path: str, value) -> dict:
    """BASE_CONFIG with the key at ``path`` set to ``value``, or removed when it is None."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    *sections, key = path.split(".")
    node = doc
    for section in sections:
        node = node[section]
    node.pop(key, None)
    if value is not None:
        node[key] = value
    return doc


def _built(tmp_path, command, flags, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return sp.cli.build_config(sp.cli._build_parser().parse_args([command, "--config", str(config), *flags]))


@pytest.mark.parametrize("case", sorted(FLAG_AND_KEY))
def test_each_setting_reads_the_same_from_a_flag_as_from_the_file(tmp_path, monkeypatch, case):
    command, flags, path, value, other = FLAG_AND_KEY[case]
    monkeypatch.chdir(tmp_path)
    from_file = _built(tmp_path, command, [], _config_with(path, value))
    assert _built(tmp_path, command, flags, _config_with(path, None)) == from_file
    assert _built(tmp_path, command, flags, _config_with(path, other)) == from_file  # the flag wins
    assert _built(tmp_path, command, [], _config_with(path, other)) != from_file


def test_a_tolerance_flag_replaces_the_file_entry_of_its_check_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--tol", "completeness=1e-3"]
    # the file's entry for the same check is replaced, and so never read
    cfg = _built(tmp_path, "verify", flags, _config_with("suite.tolerances", {"completeness": True}))
    assert cfg.tolerances == {"completeness": 1e-3}
    # the entries of other checks stay, and are checked
    cfg = _built(tmp_path, "verify", flags, BASE_CONFIG)
    assert cfg.tolerances == {"orthonormality": 1e-9, "completeness": 1e-3}
    with pytest.raises(sp.ConfigError, match="orthonormality"):
        _built(tmp_path, "verify", flags, _config_with("suite.tolerances", {"orthonormality": True}))


def test_a_sweep_config_holds_its_sorted_distinct_grids_and_still_checks_grid_n(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _built(tmp_path, "sweep", [], _config_with("sweep", {"n_values": [39, 9, 19, 9]}))
    assert cfg.grids == tuple(sp.make_grid(-8, 8, n) for n in (9, 19, 39))
    with pytest.raises(sp.ConfigError, match="grid.n"):
        _built(tmp_path, "sweep", [], _config_with("grid.n", 19.5))


def test_readme_config_example_builds_for_every_command(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```json\n(.*?)```", section, flags=re.S)
    (tmp_path / "config.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    for command in ("solve", "verify", "sweep", "export-kernel"):
        cfg = sp.cli.build_config(sp.cli._build_parser().parse_args([command, "--config", "config.json"]))
        assert cfg.potential == sp.named("quartic_cubic") and cfg.out == Path("results")
        sizes = [199, 399, 799] if command == "sweep" else [999]
        assert cfg.grids == tuple(sp.make_grid(-10, 10, n) for n in sizes)


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the first block writes kernel_P.* to the working directory
    namespace = {}
    for block in blocks:  # the second reads the first's spectrum
        exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "kernel_P.csv").exists() and (tmp_path / "kernel_P.txt").exists()
    assert json.loads(capsys.readouterr().out)["pass"] is True
