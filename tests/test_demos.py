"""Every demo runs: the CLI walkthrough's commands and both Python tours."""
import runpy
import shlex
from pathlib import Path

import pytest

from twostage import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def walkthrough_commands():
    lines = (DEMOS / "cli_walkthrough.sh").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twostage ")]


def test_cli_walkthrough_commands_all_succeed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert {argv[0] for argv in commands} == {"gen", "solve-lp", "round", "oracle", "saa", "bench"}
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "table2.csv").read_bytes()


@pytest.mark.parametrize("name", ["reservation_walkthrough.py", "facility_rounding_tour.py"])
def test_python_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
