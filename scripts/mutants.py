"""Check that the tests kill each of a list of mutants of src/.

A mutant is one edit to one file of `src/cset`: an exact old text, which
must occur in that file exactly once, the new text that replaces it, and
the test files that must fail on the result. For each mutant, `src/`,
`tests/` and `pyproject.toml` are copied into a temporary directory, the
edit is made in the copy (never in the working tree), and the mutant's
tests run there with `PYTHONPATH` set to the copy's `src/`. Only a test
failure (pytest exit code 1) kills a mutant; a pass, a time-out or any
other exit code is a survivor. First the same tests run on an unedited
copy and must pass, so that a failure can be blamed on the edit.

The script prints one line per mutant and exits nonzero if any mutant
survives or any edit no longer applies. A change that rewrites a mutant's
old text updates its entry in the same change; an entry is dropped only
when the code it mutates is gone.

    python3 scripts/mutants.py

It takes no options.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str  # under src/cset
    old: str
    new: str
    tests: tuple


SORT_TESTS = ("tests/test_score_store.py", "tests/test_partial_sort.py",
              "tests/test_tie_order_on_demand.py")
PLATT_TESTS = ("tests/test_platt.py",)

MUTANTS = [
    # _tie_keys: each row's keys start at draw row * K of the stream ...
    Mutant("score_store.py", "rng.bit_generator.advance(row * k)",
           "rng.bit_generator.advance(row)", SORT_TESTS),
    # ... counted from the start of the stream for every row.
    Mutant("score_store.py", "rng.bit_generator.state = start", "pass", SORT_TESTS),
    # _tie_ordered keys a tied row by its row of the matrix, not of its block,
    Mutant("score_store.py", "_tie_keys(seed, rows[block][tied], k)",
           "_tie_keys(seed, tied, k)", SORT_TESTS),
    # orders each row with any tie, not only a row that is one run,
    Mutant("score_store.py", "(srt[:, 1:] == srt[:, :-1]).any(axis=1)",
           "(srt[:, 1:] == srt[:, :-1]).all(axis=1)", SORT_TESTS),
    # and puts the smaller key of a run first.
    Mutant("score_store.py", "np.lexsort((keys, -p[tied]), axis=1)",
           "np.lexsort((-keys, -p[tied]), axis=1)", SORT_TESTS),
    # sort_scores keys its rows from first_row,
    Mutant("score_store.py", "rows = np.arange(first_row, first_row + n)",
           "rows = np.arange(n)", SORT_TESTS),
    # partitions at the first of the w largest values,
    Mutant("score_store.py", "np.partition(p, k - w, axis=1)",
           "np.partition(p, k - w + 1, axis=1)", SORT_TESTS),
    # and gathers a block holding a -0.0 through the tie order.
    Mutant("score_store.py", "if np.signbit(p).any():", "if False:", SORT_TESTS),
    # fit_temperature settles a comparison from a known slope only beyond its
    # rounding margin,
    Mutant("platt.py", "math.isfinite(margin) and margin > err(c) + err(d) and (", "(",
           PLATT_TESTS),
    # on the side of the minimum that slope shows,
    Mutant("platt.py", "return slope < 0", "return slope > 0", PLATT_TESTS),
    # does settle one when it can,
    Mutant("platt.py", "for q, slope, bound in known:", "for q, slope, bound in ():",
           PLATT_TESTS),
    # and frees its shifted copy of the logits before nll makes another.
    Mutant("platt.py", "    del f  #", "    pass  #", PLATT_TESTS),
]


def _copy(tmp: Path) -> None:
    shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", tmp / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _pytest(tmp: Path, tests) -> str:
    """'passed', 'failed', 'timed out' or 'exit <code>' for the tests on the copy."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
    try:
        done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "passed", 1: "failed"}.get(done.returncode, f"exit {done.returncode}")


def _apply(tmp: Path, m: Mutant) -> None:
    path = tmp / "src" / "cset" / m.file
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        raise SystemExit(f"mutant no longer applies: {m.old!r} occurs {count} times "
                         f"in src/cset/{m.file}")
    path.write_text(text.replace(m.old, m.new))


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        outcome = _pytest(Path(tmp), tests)
    if outcome != "passed":
        print(f"the tests {outcome} on the unedited copy; no mutant can be judged")
        return 1
    survivors = 0
    for i, m in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            _apply(Path(tmp), m)
            outcome = _pytest(Path(tmp), m.tests)
        verdict = "killed" if outcome == "failed" else f"SURVIVED ({outcome})"
        survivors += outcome != "failed"
        print(f"{i:2d} {verdict:<20} {time.perf_counter() - start:5.1f} s  "
              f"src/cset/{m.file}: {m.old!r} -> {m.new!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
