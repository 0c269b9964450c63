"""The README's examples run as written.

The library tour is executed as one block, and every `wignerkit ...` line of
the CLI block runs through cli.main and must exit 0, so the README cannot
name a removed function or a stale flag.
"""
import re
import shlex
from pathlib import Path

import pytest

from wignerkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    # The first ```language block after the given "## " heading.
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    line for line in fenced_block("CLI", "sh").splitlines() if line.startswith("wignerkit ")
]


def test_library_tour_runs():
    exec(compile(fenced_block("Library tour", "python"), "README.md", "exec"), {})


def test_cli_block_is_not_empty():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
