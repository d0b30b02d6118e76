"""README's "Quick start" commands and its "Library use" block run as written."""

import re
import shlex
from pathlib import Path

import pytest

from sqlscore import cli, write_fixtures

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


# each command as its argv: continued lines joined, comments and blank lines dropped
QUICK_START = [argv for line in readme_block("Quick start", "sh").replace("\\\n", " ").splitlines() if (argv := shlex.split(line, comments=True))]


@pytest.fixture()
def readme_dir(tmp_path, monkeypatch):
    """A working directory that holds the fixtures where README's examples read them."""
    write_fixtures(tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)


def test_quick_start_is_a_list_of_sqlscore_commands():
    assert len(QUICK_START) >= 5
    assert all(argv[0] == "sqlscore" for argv in QUICK_START)


@pytest.mark.parametrize("argv", QUICK_START, ids=[f"{i}-{argv[1]}" for i, argv in enumerate(QUICK_START)])
def test_quick_start_command_exits_0(readme_dir, argv, capsys):
    assert cli.main(argv[1:]) == 0, capsys.readouterr()


def test_library_use_gives_the_values_its_comments_state(readme_dir):
    block = readme_block("Library use", "python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # each line that ends in a value as its comment, as "score.value  # 1.0"
    stated = re.findall(r"^(\S.*?)\s+# (\d+\.\d+)\b", block, re.MULTILINE)
    assert len(stated) == 2
    for expression, value in stated:
        assert eval(expression, namespace) == float(value), expression
