"""Smoke test of tools/command_times.py on one cheap command."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "command_times.py"


@pytest.fixture(scope="module")
def command_times():
    spec = importlib.util.spec_from_file_location("command_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_prints_one_line_per_command_and_the_total(command_times, monkeypatch, capsys):
    monkeypatch.setattr(command_times.report_digests, "commands",
                        lambda: [["eval", "constant"]])
    (ms, argv), = command_times.best_times([["eval", "constant"]], rounds=1)
    assert argv == ["eval", "constant", "--seed", "1", "--format", "json"]
    assert 0.0 < ms < 60e3
    command_times.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    ms_text, argv_text = lines[0].strip().split("  ", 1)
    assert argv_text == "eval constant --seed 1 --format json"
    assert lines[1].strip() == f"{ms_text}  total"
