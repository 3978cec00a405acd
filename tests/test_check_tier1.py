"""tools/check_tier1.py passes exactly when criteria 3 and 7 alone fail."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import check_tier1  # noqa: E402

C3 = "test_criterion_3_dirac_annihilation"
C7 = "test_criterion_7_reconstruction_suite"


def junit(tmp_path, cases):
    """A JUnit file with one test case per (classname, name, outcome)."""
    body = []
    for classname, name, outcome in cases:
        inner = {"pass": "", "failure": "<failure message='x'/>",
                 "error": "<error message='x'/>", "skip": "<skipped/>"}[outcome]
        body.append(f'<testcase classname="{classname}" name="{name}">{inner}</testcase>')
    path = tmp_path / "tier1.xml"
    path.write_text('<testsuites><testsuite name="pytest">' + "".join(body)
                    + "</testsuite></testsuites>")
    return str(path)


ACC = "tests.test_acceptance"


@pytest.mark.parametrize("extra, code", [
    ([], 0),
    ([("tests.test_cauchy", "test_x", "skip")], 0),
    ([("tests.test_cauchy", "test_x", "failure")], 1),
    ([("", "tests.test_cauchy", "error")], 1),
])
def test_other_outcomes(tmp_path, extra, code):
    cases = [(ACC, C3, "failure"), (ACC, C7, "failure"), ("tests.test_rng", "test_y", "pass")]
    assert check_tier1.main([junit(tmp_path, cases + extra)]) == code


@pytest.mark.parametrize("c3, c7", [("pass", "failure"), ("failure", "pass"), ("pass", "pass")])
def test_a_criterion_that_starts_passing_fails_the_check(tmp_path, c3, c7):
    assert check_tier1.main([junit(tmp_path, [(ACC, C3, c3), (ACC, C7, c7)])]) == 1


def test_an_unexpected_failure_prints_the_first_line_of_its_message(tmp_path, capsys):
    path = tmp_path / "tier1.xml"
    failure = ('<failure message="AssertionError: -0.0j != +0.0j&#10;Falsifying example: '
               'case=(2, 2)"/>')
    path.write_text(
        '<testsuites><testsuite name="pytest">'
        f'<testcase classname="{ACC}" name="{C3}"><failure message="x"/></testcase>'
        f'<testcase classname="{ACC}" name="{C7}"><failure message="x"/></testcase>'
        f'<testcase classname="tests.test_fields" name="test_x">{failure}</testcase>'
        '<testcase classname="tests.test_rng" name="test_y"><error/></testcase>'
        '</testsuite></testsuites>')
    assert check_tier1.main([str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "unexpected failure: tests.test_fields.test_x",
        "    AssertionError: -0.0j != +0.0j",
        "unexpected failure: tests.test_rng.test_y",
        "4 test cases, 4 failed",
    ]
