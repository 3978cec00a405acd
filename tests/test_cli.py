import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biaxial.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def test_verify_algebra_json_schema(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "algebra", "--p", "2", "--q", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert list(payload.keys()) == ["suite", "checks", "config"]
    assert payload["suite"] == "algebra"
    for check in payload["checks"]:
        assert list(check.keys()) == ["name", "measured", "tolerance", "pass"]
        assert check["pass"] is True


def test_verify_funkhecke_passes(tmp_path):
    out = tmp_path / "fh.json"
    code = run(["verify", "funkhecke", "--p", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(c["measured"] < 1e-8 for c in payload["checks"])


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_config_validation_exit_codes(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run(["verify", "algebra", "--p", "1", "--out", str(out)]) == 2
    assert run(["verify", "algebra", "--p", "4", "--q", "6", "--out", str(out)]) == 2
    assert run(["verify", "algebra", "--res", "4", "--out", str(out)]) == 2
    assert run(["verify", "algebra", "--h", "0.5", "--out", str(out)]) == 2
    assert run(["verify", "algebra", "--s", "0,0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # Validation failures must never leave a partial output file behind.
    assert not out.exists()


def test_eval_csv_grid(tmp_path):
    out = tmp_path / "table.csv"
    code = run([
        "eval", "exp-hpw", "--p", "2", "--q", "2", "--grid-r", "0:1:3",
        "--grid-t=-0.5:0.5:3", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["x1", "x2", "y1", "y2"]
    assert "scalar_re" in header and "e1e3_re" in header
    assert len([ln for ln in lines if ln]) == 1 + 9


def test_eval_axis_row_is_plain_exponential(tmp_path):
    import math

    out = tmp_path / "axis.json"
    code = run([
        "eval", "exp-hpw", "--p", "2", "--q", "2", "--grid-r", "0:0:1",
        "--grid-t", "0.5:0.5:1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert abs(row["scalar_re"] - math.exp(0.5)) < 1e-14
    assert row["e1e3_re"] == 0.0


def test_eval_nonconvergent_grid_is_structured_error(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = run([
        "eval", "ck", "--p", "2", "--q", "2", "--J", "10",
        "--grid-r", "5:5:1", "--grid-t", "0:0:1", "--out", str(out),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_table_monotone_toward_boundary(tmp_path):
    out = tmp_path / "mono.json"
    code = run([
        "kernel-table", "--p", "2", "--q", "2", "--grid-r", "0:0.6:4",
        "--grid-theta", "0:0:1", "--res", "64", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    closed = [row[2] for row in payload["rows"]]
    # At theta=0, y=0 the evaluation point approaches the boundary sample
    # as r grows, so the kernel increases.
    assert all(a < b for a, b in zip(closed, closed[1:]))


def test_eval_poly_uses_degree(tmp_path):
    out = tmp_path / "poly.json"
    code = run([
        "eval", "poly", "--k", "3", "--p", "2", "--q", "2",
        "--grid-r", "0.2:0.8:2", "--grid-t", "0:0:1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["field"] == "poly"
    assert payload["config"]["k"] == 3
    assert len(payload["rows"]) == 2


def test_kernel_table_pass_and_tolerance_failure(tmp_path):
    out = tmp_path / "kernel.csv"
    base = [
        "kernel-table", "--p", "2", "--q", "2", "--grid-r", "0:0.4:3",
        "--grid-theta", "0:1.5:3", "--res", "32", "--format", "csv",
    ]
    assert run(base + ["--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    assert all(float(row[4]) < 1e-8 for row in rows)
    assert run(base + ["--tol", "1e-18", "--out", str(out)]) == 1


def test_kernel_table_domain_validation(tmp_path):
    code = run([
        "kernel-table", "--p", "2", "--q", "2", "--grid-r", "0:0.9:3",
        "--y", "0.5,0.0", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_reconstruct_report_columns(tmp_path):
    out = tmp_path / "rec.json"
    code = run([
        "reconstruct", "--field", "constant", "--p", "2", "--q", "2",
        "--points", "0.3,0;0,0", "--res", "24", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    cols = payload["columns"]
    row = dict(zip(cols, payload["rows"][0]))
    # Corrected assembly reproduces the constant; the reduced integrand
    # misses it by the structural defect.
    assert row["err_A_corrected"] < 1e-6
    assert row["err_A_full"] > 1e-3
    assert row["err_fullball_corrected"] < 1e-5


def test_reused_parser_starts_each_call_from_its_defaults(tmp_path):
    out = tmp_path / "rec.json"
    base = ["reconstruct", "--field", "constant", "--res", "24", "--out", str(out)]
    assert run(base + ["--points", "0.3,0;0,0", "--points", "0,0.2;0.1,0"]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2
    assert run(base + ["--points", "0.1,0;0,0"]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 1
    assert run(base + ["--num-points", "1"]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 1


@pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("field", ["constant", "linear", "exp-hpw"])
def test_reconstruct_on_the_x_axis_assembles_a_alone(tmp_path, field, p, q):
    # At x = 0 the corrected pair assembles to A alone, as AxialField.value_at does.
    out = tmp_path / "axis.json"
    point = ",".join(["0"] * p) + ";" + ",".join(["0.1"] + ["0"] * (q - 1))
    code = run(["reconstruct", "--field", field, "--p", str(p), "--q", str(q),
                "--points", point, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["err_A_corrected"] <= 1e-12 and row["err_B_corrected"] <= 1e-12
    assert row["err_fullball_corrected"] <= 1e-9


def test_verify_cauchy_reports_reduction_defect(tmp_path):
    out = tmp_path / "cauchy.json"
    code = run([
        "verify", "cauchy", "--p", "2", "--q", "2", "--res", "32", "--out", str(out),
    ])
    # The reduced-integrand checks fail by construction, so the suite
    # reports a nonzero exit while the corrected checks pass.
    assert code == 1
    payload = json.loads(out.read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["reconstruct_corrected_vs_direct_exp_hpw"]["pass"] is True
    assert by_name["reconstruct_reduced_vs_direct_exp_hpw"]["pass"] is False


def test_stdout_output(capsys):
    code = run(["verify", "algebra", "--p", "2", "--q", "2"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["suite"] == "algebra"


def test_verify_cauchy_dim_8_exits_before_building_omega(monkeypatch, capsys):
    # No S^5 rule (about 1e8 nodes at res 40) may be requested: the
    # dim-8 ball rule rejects the call first.
    import biaxial.cli as cli
    import biaxial.quadrature as quadrature

    real = quadrature.sphere_rule
    requested = []

    def spy(d, resolution=64):
        requested.append(d)
        assert d != 6, "the S^5 rule was requested"
        return real(d, resolution)

    monkeypatch.setattr(quadrature, "sphere_rule", spy)
    monkeypatch.setattr(cli, "sphere_rule", spy)
    assert run(["verify", "cauchy", "--p", "6", "--q", "2"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)
    assert 6 not in requested


@pytest.mark.parametrize("args, nodes", [
    (["verify", "planewave", "--p", "5", "--q", "3"], 48 ** 4),
    (["verify", "kernel", "--p", "6", "--q", "2"], 64 ** 5),
    (["kernel-table", "--p", "6", "--q", "2"], 64 ** 5),
    (["verify", "cauchy", "--p", "2", "--q", "6"], 40 ** 5),
])
def test_over_budget_rule_exits_2_before_allocation(refuse_polar_rules, capsys, args, nodes):
    import biaxial.quadrature as quadrature

    assert run(args) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"needs {nodes} nodes, above the limit of {quadrature.MAX_SPHERE_NODES}" in error


@pytest.mark.parametrize("args, message", [
    # Two stored terms leave no C_2 coefficient to check.
    (["verify", "ck", "--J", "1"], "ck suite needs J >= 2, got J=1"),
    # The Bessel-J series is accurate only up to z = 12.
    (["eval", "exp-hpw", "--grid-r", "0:40:3"], "argument must lie in [0, 12.0], got 20.0"),
])
def test_inputs_beyond_a_limit_exit_2_naming_it(tmp_path, capsys, args, message):
    out = tmp_path / "never.json"
    assert run(args + ["--out", str(out)]) == 2
    assert message in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_reconstruct_without_points_exits_2_before_building_rules(monkeypatch, tmp_path,
                                                                   capsys, count):
    import biaxial.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a rule or oracle was built")

    for name in ("hemisphere_rule", "sphere_rule", "FullBallCauchy"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "never.json"
    assert run(["reconstruct", "--num-points", count, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"need --num-points >= 1, got {count}"
    assert not out.exists()


@pytest.mark.parametrize("args, option", [
    (["verify", "vekua", "--s", "nan,1"], "--s"),
    (["verify", "vekua", "--s", "inf,1"], "--s"),
    (["eval", "linear", "--grid-r", "0:nan:3"], "--grid-r"),
    (["eval", "linear", "--grid-t=-inf:1:3"], "--grid-t"),
    (["kernel-table", "--grid-r", "nan:0.5:3"], "--grid-r"),
    (["kernel-table", "--grid-theta", "0:nan:3"], "--grid-theta"),
    (["kernel-table", "--y", "nan,0"], "--y"),
    (["kernel-table", "--tol", "nan"], "--tol"),
    (["kernel-table", "--tol", "inf"], "--tol"),
    (["reconstruct", "--points", "0.3,nan;0,0"], "--points"),
    (["reconstruct", "--points", "0.3,0;-inf,0"], "--points"),
])
def test_non_finite_inputs_exit_2_naming_the_option(tmp_path, capsys, args, option):
    out = tmp_path / "never.json"
    assert run(args + ["--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(option + " ") and "finite" in error
    assert not out.exists()


@pytest.mark.parametrize("args, option", [
    (["verify", "dirac", "--s", "1,a"], "--s"),
    (["verify", "dirac", "--s", "1,,0"], "--s"),
    (["kernel-table", "--y", "0,x"], "--y"),
    (["kernel-table", "--tol", "-1"], "--tol"),
])
def test_malformed_vectors_and_tolerances_exit_2_naming_the_option(tmp_path, capsys, args,
                                                                   option):
    out = tmp_path / "never.json"
    assert run(args + ["--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(option + " ")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0.3,a;0,0", "0.3,0;0,,0", "0.3,0"])
def test_malformed_points_keep_the_format_message(tmp_path, capsys, spec):
    out = tmp_path / "never.json"
    assert run(["reconstruct", "--points", spec, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"point must look like x1,..;y1,.., got {spec!r}"
    assert not out.exists()


@pytest.mark.parametrize("field, p, stop", [("exp-hpw", 7, "1e-130"),
                                            ("fourier-kernel", 6, "1e-158")])
def test_eval_at_tiny_radius_gives_the_axis_limit(tmp_path, field, p, stop):
    # |x|^{p/2-1} underflows at these radii; the profiles must not divide by it.
    out = tmp_path / "tiny.json"
    code = run(["eval", field, "--p", str(p), "--q", str(8 - p), "--grid-r", f"0:{stop}:2",
                "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    # Rows run over t for r = 0, then for the tiny r; values follow 8 coordinates.
    for axis, tiny in zip(rows[:5], rows[5:]):
        for want, got in zip(axis[8:], tiny[8:]):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("args, point", [
    # exp(800) overflows to inf, and inf times a zero blade to NaN.
    (["eval", "exp-hpw", "--grid-t", "0:800:2"], "|x| = 0.0, t = 800.0"),
    # cmath.exp raises OverflowError.
    (["eval", "ck", "--grid-t", "0:800:2"], "|x| = 0.0, t = 800.0"),
    # (1e40)^12 overflows the profile's float arithmetic.
    (["eval", "poly", "--k", "12", "--grid-t", "0:1e40:2"], "|x| = 0.0, t = 1e+40"),
])
def test_eval_overflow_exits_2_naming_the_first_grid_point(tmp_path, capsys, args, point):
    out = tmp_path / "never.json"
    assert run(args + ["--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{args[1]} is not finite at the grid point {point}"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["eval", "exp-hpw", "--grid-t", "0:800:2"],
    ["eval", "ck", "--grid-t", "0:800:2"],
    ["eval", "poly", "--k", "12", "--grid-t", "0:1e40:2"],
])
def test_eval_overflow_writes_only_its_json_error(tmp_path, args):
    # With warnings raised as errors, a numpy overflow warning would end the
    # process with a traceback; without, it would come before the error line.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "biaxial.cli", *args,
                           "--out", str(tmp_path / "never.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["error"].startswith(f"{args[1]} is not finite")


def test_over_budget_jacobi_rule_exits_2_naming_it(tmp_path, capsys):
    import biaxial.quadrature as quadrature

    out = tmp_path / "never.json"
    assert run(["verify", "funkhecke", "--p", "2", "--res", "1001", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "1001 x 1001" in error and str(quadrature.MAX_SPHERE_NODES) in error
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("the table was started")


@pytest.mark.parametrize("args, refused, cells", [
    # 100 x 100 grid points, each 8 coordinates and 2 x 256 blade parts.
    (["eval", "constant", "--p", "4", "--q", "4", "--grid-r", "0:1:100",
      "--grid-t", "0:1:100"], "BiaxialPoint", 10_000 * 520),
    (["kernel-table", "--grid-r", "0:0.5:1000", "--grid-theta", "0:1.5:300"],
     "sphere_rule", 300_000 * 5),
    (["reconstruct", "--num-points", "1000000000"], "_interior_point", 1_000_000_000 * 12),
])
def test_oversized_tables_exit_2_before_they_are_built(monkeypatch, tmp_path, capsys, args,
                                                       refused, cells):
    import biaxial.cli as cli

    for name in (refused, "hemisphere_rule", "FullBallCauchy"):
        monkeypatch.setattr(cli, name, _refuse)
    out = tmp_path / "never.json"
    assert run(args + ["--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"report needs {cells} cells, above the limit of {cli.MAX_REPORT_CELLS}"
    assert not out.exists()


@pytest.mark.parametrize("p, q, res, per_point", [
    # Hemisphere rule (at most res 48) plus full-ball rule, per point.
    (2, 2, 64, 48 * 48 + 28 ** 3),
    (2, 3, 64, 48 * 48 ** 2 + 16 ** 4),
    (3, 3, 12, 12 * 12 ** 2 + 10 ** 5),
])
def test_reconstruct_over_the_work_budget_exits_2_before_the_sweep(monkeypatch, tmp_path, capsys,
                                                                   p, q, res, per_point):
    import biaxial.cli as cli

    monkeypatch.setattr(cli, "_reconstruction_errors",
                        lambda *args: dict.fromkeys(cli._RECONSTRUCTION_ERRORS, 0.0))
    largest = cli.MAX_RECONSTRUCT_WORK // per_point
    base = ["reconstruct", "--p", str(p), "--q", str(q), "--res", str(res), "--field", "constant"]
    out = tmp_path / "largest.json"
    assert run(base + ["--num-points", str(largest), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == largest
    for name in ("_interior_point", "FullBallCauchy", "_reconstruction_errors"):
        monkeypatch.setattr(cli, name, _refuse)
    out = tmp_path / "never.json"
    assert run(base + ["--num-points", str(largest + 1), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == (f"reconstruct needs {(largest + 1) * per_point} point x node evaluations, "
                     f"above the limit of {cli.MAX_RECONSTRUCT_WORK}")
    assert not out.exists()


def test_kernel_table_over_the_work_budget_exits_2_before_the_oracle(monkeypatch, tmp_path,
                                                                    capsys):
    import biaxial.cli as cli

    nodes = 64 ** 3  # sphere_rule(4, 64)
    largest = cli.MAX_RECONSTRUCT_WORK // nodes
    base = ["kernel-table", "--p", "4", "--q", "4", "--grid-theta", "0:1.5:1", "--tol", "1e300"]
    monkeypatch.setattr(cli, "kernel_I_oracle", lambda x, ys, *args: np.zeros(len(ys)))
    out = tmp_path / "largest.json"
    assert run(base + ["--grid-r", f"0:0.5:{largest}", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == largest
    monkeypatch.setattr(cli, "kernel_I_oracle", _refuse)
    out = tmp_path / "never.json"
    assert run(base + ["--grid-r", f"0:0.5:{largest + 1}", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == (f"kernel-table needs {(largest + 1) * nodes} row x node evaluations, "
                     f"above the limit of {cli.MAX_RECONSTRUCT_WORK}")
    assert not out.exists()


@pytest.mark.parametrize("option, command", [("--grid-r", "eval"), ("--grid-t", "eval"),
                                             ("--grid-theta", "kernel-table")])
def test_oversized_sample_counts_exit_2_before_allocation(monkeypatch, tmp_path, capsys,
                                                          option, command):
    import biaxial.cli as cli

    real = np.linspace

    def linspace(start, stop, num, **kwargs):
        assert num <= cli.MAX_REPORT_CELLS, f"asked numpy for {num} samples"
        return real(start, stop, num, **kwargs)

    monkeypatch.setattr(cli.np, "linspace", linspace)
    args = [command] + (["constant"] if command == "eval" else [])
    out = tmp_path / "never.json"
    assert run(args + [option, "0:0.1:1000000000", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{option} needs 1000000000 cells, above the limit of {cli.MAX_REPORT_CELLS}"
    assert not out.exists()
