"""The README's code runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    coverage, avg_size, sscv = map(float, capsys.readouterr().out.split())
    assert 0.8 < coverage <= 1.0 and avg_size >= 1.0 and 0.0 <= sscv <= 1.0
