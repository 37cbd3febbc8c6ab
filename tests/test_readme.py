"""The README's code runs as written."""

import shlex
from pathlib import Path

from cset.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    coverage, avg_size, sscv = map(float, capsys.readouterr().out.split())
    assert 0.8 < coverage <= 1.0 and avg_size >= 1.0 and 0.0 <= sscv <= 1.0


def test_cli_walkthrough_runs_as_written(tmp_path, monkeypatch):
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # every file a line reads comes from an earlier line
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv[:1] == ["cset"]]
    assert len(commands) >= 5
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
