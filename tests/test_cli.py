import json

import pytest

from biaxial.cli import main


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
