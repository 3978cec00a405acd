"""tools/report_diff.py on small hand-made payloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(report, code=0, stderr=""):
    return {"code": code, "stderr": stderr, "report": report}


def _check(name, measured, passed=True):
    return {"name": name, "measured": measured, "tolerance": 1e-6, "pass": passed}


def test_moved_checks_get_one_line_each(report_diff):
    config = {"p": 2, "seed": 1}
    base = _run({"suite": "dirac", "checks": [_check("a", 1e-7), _check("b", 2e-7),
                                              _check("c", 3e-7)], "config": config})
    head = _run({"suite": "dirac", "checks": [_check("a", 1e-7), _check("b", 2.5e-7),
                                              _check("c", 3e-6, False)], "config": config},
                code=1)
    assert report_diff.diff_runs("verify dirac", base, head) == [
        "verify dirac  exit code  0 -> 1",
        "verify dirac  b  2e-07 -> 2.5e-07  true",
        "verify dirac  c  3e-07 -> 3e-06  true -> false",
    ]


def test_moved_table_reports_largest_change_and_zero_sign_flips(report_diff):
    columns = ["x1", "v_re", "v_im"]
    base = _run({"command": "eval", "columns": columns,
                 "rows": [[0.0, 1.0, 0.0], [0.5, 2.0, -0.0], [1.0, 3.0, 0.0]]})
    head = _run({"command": "eval", "columns": columns,
                 "rows": [[0.0, 1.0, -0.0], [0.5, 2.25, -0.0], [1.0, 3.0, -0.0]]})
    assert report_diff.diff_runs("eval poly", base, head) == [
        "eval poly  table  3 cells moved, largest |change| 0.25, 2 zero signs flipped",
    ]


def test_identical_runs_and_other_fields(report_diff):
    run = _run({"command": "eval", "columns": ["x1"], "rows": [[0.0]]})
    assert report_diff.diff_runs("eval", run, run) == []
    error = _run(None, code=2, stderr='{"error": "bad"}\n')
    assert report_diff.diff_runs("eval", run, error) == [
        "eval  exit code  0 -> 2",
        "eval  stderr  '' -> '{\"error\": \"bad\"}'",
        "eval  columns  changed",
        "eval  command  changed",
        "eval  rows  changed",
    ]


def test_collect_runs_the_cli_of_a_checkout(report_diff, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = Path(__file__).resolve().parents[1]
    argv = ["verify", "funkhecke", "--seed", "1", "--format", "json"]
    runs = report_diff.collect(root, [argv])
    run = runs[" ".join(argv)]
    assert run["code"] == 0 and run["stderr"] == ""
    assert run["report"]["suite"] == "funkhecke"
    assert report_diff.diff_runs("funkhecke", run, run) == []
