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


COMMANDS = [["eval", "constant"], ["eval", "linear"], ["verify", "algebra", "--p", "2"]]


def test_select_matches_whole_words_of_each_prefix(command_times):
    assert command_times.select(COMMANDS, []) == COMMANDS
    assert command_times.select(COMMANDS, ["eval"]) == COMMANDS[:2]
    assert command_times.select(COMMANDS, ["verify algebra --p 2", "eval linear"]) == \
        COMMANDS[1:]
    with pytest.raises(ValueError, match="'eval const'"):
        command_times.select(COMMANDS, ["eval const"])


def test_main_times_only_the_commands_a_prefix_selects(command_times, monkeypatch, capsys):
    monkeypatch.setattr(command_times.report_digests, "commands", lambda: COMMANDS)
    assert command_times.main(["eval linear"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.strip().split("  ", 1)[1] for line in lines] == [
        "eval linear --seed 1 --format json", "total"]
    assert command_times.main(["kernel-table"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'kernel-table'" in captured.err
