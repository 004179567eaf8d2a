"""Every `layerreuse` command in README.md's CLI block runs, in order."""

import re
import shlex
from pathlib import Path

from layerreuse.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_commands() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("layerreuse ")]


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAYERREUSE_OUT_DIR", raising=False)
    commands = _cli_commands()
    assert [argv[0] for argv in commands] == ["gen-traces", "profile", "plan", "decode", "bench", "report"]
    for argv in commands:
        assert main(argv) == 0, argv
