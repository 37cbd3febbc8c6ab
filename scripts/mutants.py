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
SYNTH_TESTS = ("tests/test_synth_stream.py",)
CONFORMAL_TESTS = ("tests/test_conformal.py",)
EVAL_TESTS = ("tests/test_eval_blocks.py",)
SHARE_TESTS = ("tests/test_shared_counts.py",)

MUTANTS = [
    # _tie_keys: each row's keys start at draw row * K of the stream ...
    Mutant("score_store.py", "rng.bit_generator.advance(row * k)",
           "rng.bit_generator.advance(row)", SORT_TESTS),
    # ... counted from the start of the stream for every row.
    Mutant("score_store.py", "rng.bit_generator.state = start", "pass", SORT_TESTS),
    # _tie_ordered keys a row by its row of the key stream, not of its block,
    Mutant("score_store.py", "_tie_keys(seed, rows[block], k)",
           "_tie_keys(seed, np.arange(block.stop - block.start), k)", SORT_TESTS),
    # and puts the smaller key of a run first.
    Mutant("score_store.py", "np.lexsort((_tie_keys(", "np.lexsort((-_tie_keys(", SORT_TESTS),
    # sort_scores keys its rows from first_row,
    Mutant("score_store.py", "rows = np.arange(first_row, first_row + n)",
           "rows = np.arange(n)", SORT_TESTS),
    # partitions at the first of the w largest values,
    Mutant("score_store.py", "np.partition(p, k - w, axis=1)",
           "np.partition(p, k - w + 1, axis=1)", SORT_TESTS),
    # and a checked probability matrix holds 0.0 where its input held -0.0.
    Mutant("score_store.py", "        scores[signed] = 0.0\n", "", SORT_TESTS),
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
    # A synthetic evaluation stream sets each block's labels at that block's
    # rows of the split,
    Mutant("synth.py", "rest.labels[lo:lo + len(y)] = y", "rest.labels[:len(y)] = y",
           SYNTH_TESTS),
    # yields each block with its own labels, not those of the first block,
    Mutant("synth.py", 'ScoreMatrix._trusted(observed, y, "probabilities")',
           'ScoreMatrix._trusted(observed, rest.labels[:len(y)], "probabilities")',
           SYNTH_TESTS),
    # and keys each block by its row in the split, not in the generated rows;
    Mutant("synth.py", "lo = rows.start - start", "lo = rows.start", SYNTH_TESTS),
    # its walk draws and drops the gamma and labels of the rows before the split,
    Mutant("synth.py", "for rows in _row_blocks(start, k):", "for rows in _row_blocks(0, k):",
           SYNTH_TESTS),
    # and their tail keys.
    Mutant("synth.py", "        key_gen.random((m, keys))\n", "", SYNTH_TESTS),
    # A synthetic trial generates only its tuning and calibration rows as a
    # matrix,
    Mutant("trials.py", "generate(replace(data_spec, n=b))", "generate(data_spec)",
           SYNTH_TESTS),
    # and an oracle trial only its calibration rows, which it frees with
    # their sort before its evaluation walk,
    Mutant("synth.py", "generate(replace(data_spec, n=n_cal))", "generate(data_spec)",
           SYNTH_TESTS),
    Mutant("synth.py", "del cal, ss_cal", "pass", SYNTH_TESTS),
    # as a trial frees its sorted tuning split.
    Mutant("trials.py", "del ss_tune", "pass", SYNTH_TESTS),
    # A set keeps a class whose score equals the threshold,
    Mutant("conformal.py", "np.less_equal(scores, model.tau_hat,", "np.less(scores, model.tau_hat,",
           CONFORMAL_TESTS),
    # and the raps penalty starts past rank kreg, not one rank early.
    Mutant("conformal.py", "np.arange(1, k + 1) - spec.kreg", "np.arange(k) - spec.kreg",
           CONFORMAL_TESTS),
    # Models of a group share a count only where their penalty is zero up to
    # the cut,
    Mutant("conformal.py", "key = (model.tau_hat, c) if pen is None or pen[c - 1] == 0 else j",
           "key = (model.tau_hat, c)", SHARE_TESTS),
    # only at one cut,
    Mutant("conformal.py", "(model.tau_hat, c)", "(model.tau_hat,)", SHARE_TESTS),
    # and each adds its boundary +1 to its own sizes, not to the shared count.
    Mutant("conformal.py",
           "out[j][rows] = counts[key]\n"
           "                    if mode == \"one\" and model.spec.boundary_inclusive:\n"
           "                        np.minimum(out[j][rows] + 1, k, out=out[j][rows])\n",
           "if mode == \"one\" and model.spec.boundary_inclusive:\n"
           "                        np.minimum(counts[key] + 1, k, out=counts[key])\n"
           "                    out[j][rows] = counts[key]\n", SHARE_TESTS),
    # Each evaluation block takes its rows' u, not the first rows' u,
    Mutant("metrics.py", "u[lo:hi]", "u[:hi - lo]", EVAL_TESTS),
    # and is freed before the next block is sorted.
    Mutant("metrics.py", "del block", "pass", EVAL_TESTS),
    # A trial fits with its own seed, so trials draw independent calibration u,
    Mutant("trials.py", "fit_model(cal, cal.labels, spec, trial_seed)",
           "fit_model(cal, cal.labels, spec, 0)", ("tests/test_trials.py",)),
    # and the tuners measure the nested evaluation half with that half's label ranks.
    Mutant("tuning.py", "ranks[ev_idx]", "ranks[cal_idx]", ("tests/test_tuning.py",)),
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
