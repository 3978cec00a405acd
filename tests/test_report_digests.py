"""Smoke test of tools/report_digests.py: a repeated command gives the
same digest."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


@pytest.fixture(scope="module")
def report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["verify", "algebra", "--seed", "1", "--format", "csv"],
    ["eval", "constant", "--seed", "1", "--format", "json"],
])
def test_digest_is_repeatable(report_digests, argv):
    first = report_digests.digest(argv)
    assert first[1] == 0
    assert report_digests.digest(argv) == first
