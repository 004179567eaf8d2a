"""README.md's examples run: every `layerreuse` command of its CLI block, in order, and its Python block."""

import re
import shlex
from pathlib import Path

from layerreuse.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    return [shlex.split(line)[1:] for line in _block("CLI", "sh").splitlines() if line.startswith("layerreuse ")]


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAYERREUSE_OUT_DIR", raising=False)
    commands = _cli_commands()
    assert [argv[0] for argv in commands] == ["gen-traces", "profile", "plan", "decode", "bench", "report"]
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_library_example_runs(capsys):
    exec(compile(_block("Library surface", "python"), str(README), "exec"), {})
    full_count, aggregate, speedup = capsys.readouterr().out.split()
    assert int(full_count) >= 1
    assert float(aggregate) >= 0.0
    assert float(speedup) >= 1.0
