"""calibrate, tune and evaluate read their input in row blocks and join them.

The joined rows must give the bytes of a single block, a bad score is
reported from the first block that holds one, and nothing n x K is held
beside the probabilities, the sorted values and their prefix sums.
"""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cset import score_store
from cset.cli import main
from cset.conformal import ConformalModel, MethodSpec, save_model

K = 7
ROWS = 16  # rows per block when _BLOCK_CELLS is shrunk
N = 3 * ROWS + 7  # three whole blocks and a partial one


def _write_binary(path, scores, labels, kind):
    """A binary score file written cell by cell, so rows keep their sums."""
    n, k = scores.shape
    with open(path, "wb") as fh:
        fh.write(b"CSET1" + struct.pack("<BQQ", 0 if kind == "logits" else 1, n, k))
        fh.write(scores.astype("<f4").tobytes())
        fh.write(labels.astype("<u4").tobytes())


def _write_csv(path, scores, labels):
    with open(path, "w") as fh:
        fh.write(f"scores,K={scores.shape[1]}\n")
        for row, label in zip(scores.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def _input(tmp_path, kind, fmt):
    """N tie-heavy rows: every third row and the rows at each block edge take
    logits from {-1, 0, 2}. Probability rows sum to 1 +- 5e-4, so each is
    renormalized when it is read."""
    rng = np.random.default_rng(11)
    z = 3.0 * rng.standard_normal((N, K))
    rows = np.arange(N)
    tied = (rows % ROWS == 0) | (rows % ROWS == ROWS - 1) | (rows % 3 == 0)
    z[tied] = rng.choice([-1.0, 0.0, 2.0], size=(int(tied.sum()), K))
    labels = rng.integers(0, K, N)
    if kind == "probabilities":
        e = np.exp(z / 3)  # no cell near 1, which the CSV reader would take for a logit
        z = e / e.sum(axis=1, keepdims=True) * (1 + 5e-4 * rng.choice([-1, 1], (N, 1)))
    path = tmp_path / f"scores.{fmt}"
    if fmt == "csv":
        _write_csv(path, z, labels)
    else:
        _write_binary(path, z, labels, kind)
    return str(path)


def _run_all(out, path, kind):
    temp = ["--temperature", "0.7"] if kind == "logits" else []
    runs = {
        "cal": ["calibrate", "--method", "raps", "--lambda", "0.05", "--k-reg", "2",
                "--seed", "4"],
        "tune_size": ["tune", "--seed", "5"],
        "tune_adapt": ["tune", "--tune-objective", "adaptiveness", "--seed", "5"],
        "eval": ["evaluate", "--model", str(out / "cal" / "model.txt"), "--strata", "0-1,2-7",
                 "--seed", "6"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--input", path, *temp, "--out", str(out / name)]) == 0


def _outputs(out: Path) -> dict:
    """Every output file but the config echo, which names the output directory."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "config_used.json"}


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("kind", ["logits", "probabilities"])
def test_joined_blocks_give_the_bytes_of_one_block(tmp_path, monkeypatch, kind, fmt):
    path = _input(tmp_path, kind, fmt)
    _run_all(tmp_path / "one", path, kind)
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", ROWS * K)
    _run_all(tmp_path / "many", path, kind)
    one, many = _outputs(tmp_path / "one"), _outputs(tmp_path / "many")
    assert len(one) == 8 and many == one


@pytest.mark.parametrize("command", ["calibrate", "tune", "evaluate"])
def test_the_first_bad_block_names_the_error(tmp_path, monkeypatch, capsys, command):
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(K), N)
    p[2, 1] = -0.25  # first block
    p[2 * ROWS + 1, 3] = np.nan  # third block
    _write_binary(tmp_path / "bad.bin", p, rng.integers(0, K, N), "probabilities")
    model = ConformalModel(MethodSpec("aps", 0.1), 0.9, 100, 0, K)
    save_model(model, str(tmp_path / "model.txt"))
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", ROWS * K)
    extra = ["--model", str(tmp_path / "model.txt")] if command == "evaluate" else []
    argv = [command, *extra, "--input", str(tmp_path / "bad.bin"), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "negative probability in row 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_traced_peak_is_under_30_bytes_a_cell(tmp_path, command):
    n, k = 2000, 1000
    rng = np.random.default_rng(0)
    _write_binary(tmp_path / "logits.bin", rng.standard_normal((n, k), dtype=np.float32),
                  rng.integers(0, k, n), "logits")
    model = ConformalModel(MethodSpec("raps", 0.1, penalty=0.01, kreg=5), 0.9, 1000, 0, k)
    save_model(model, str(tmp_path / "model.txt"))
    extra = ["--model", str(tmp_path / "model.txt")] if command == "evaluate" else []
    argv = [command, *extra, "--input", str(tmp_path / "logits.bin"), "--temperature", "1.0",
            "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # The probability, sorted and cumsum arrays take 24 bytes a cell; a perm
    # or a second float64 matrix beside them would add 8 more.
    assert peak / (n * k) < 30, f"traced peak {peak / (n * k):.1f} bytes per cell"
