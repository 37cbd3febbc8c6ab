"""The shipped scripts refuse a bad value as a usage error, not a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, flags, says", [
    ("coverage_sandwich.py", ["--concentration", "nan"], "concentration must be positive"),
    ("coverage_sandwich.py", ["--trials", "0"], "need at least one trial"),
    ("coverage_sandwich.py", ["--alpha", "0"], "alpha must be in (0, 1)"),
    ("tuning_gains.py", ["--trials", "0"], "need at least one trial"),
    ("tuning_gains.py", ["--alpha", "1.5"], "alpha must be in (0, 1)"),
    ("coverage_sandwich.py", ["--seed", "-1", "--trials", "1", "--cal-size", "50",
                              "--eval-size", "50", "--k", "20"], "seed must be nonnegative"),
    ("tuning_gains.py", ["--seed", "-1", "--trials", "1"], "seed must be nonnegative"),
    ("coverage_sandwich.py", ["--cal-size", "0", "--trials", "1"],
     "--cal-size: expected a positive integer"),
    ("coverage_sandwich.py", ["--eval-size", "-5", "--trials", "1"],
     "--eval-size: expected a positive integer"),
])
def test_script_bad_value_is_a_usage_error(script, flags, says):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *flags],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("usage:") and says in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
