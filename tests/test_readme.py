"""The README's examples run as documented: every `barneszeta ...` line of
its sh blocks through the CLI, and its python blocks in order, in one
namespace (a later block uses names that an earlier one defines)."""

import re
import shlex
from pathlib import Path

import pytest

from barneszeta.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(sh|python)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [shlex.split(line, comments=True)[1:] for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("barneszeta ")]


def test_readme_has_examples():
    assert len(COMMANDS) >= 8
    assert sum(lang == "python" for lang, _ in BLOCKS) >= 2


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_cli_example(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_python_examples():
    namespace = {}
    for lang, body in BLOCKS:
        if lang == "python":
            exec(compile(body, "README.md", "exec"), namespace)
