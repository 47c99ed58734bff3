"""Every command-line example in the README runs and succeeds."""

import re
import shlex
from pathlib import Path

import pytest

from bandschur.cli import COMMAND_OPERATIONS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("bandschur ")]


def test_readme_has_an_example_of_every_command():
    commands = [shlex.split(line)[1] for line in _command_lines()]
    assert sorted(commands) == sorted(COMMAND_OPERATIONS)


@pytest.mark.parametrize("line", _command_lines())
def test_readme_example_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out
