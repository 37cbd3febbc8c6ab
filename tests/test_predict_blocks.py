"""predict walks its input in row blocks.

The blocks must give the same bytes as one pass over the whole matrix, find
bad input before any block is read (or, for a bad score, before any output
is left behind), and keep memory bounded by the block, not by n.
"""

import struct
import tracemalloc

import numpy as np
import pytest

import cset
from cset import score_store, seeds
from cset.cli import main
from cset.conformal import ConformalModel, MethodSpec, load_model, set_sizes

K = 7
ROWS = 16  # rows per block under the small_blocks fixture
HEAD = len(b"CSET1") + struct.calcsize("<BQQ")

SPECS = {
    "randomized": MethodSpec("raps", 0.2, penalty=0.05, kreg=2),
    "deterministic": MethodSpec("aps", 0.2, randomized=False),
    "boundary_inclusive": MethodSpec(
        "raps", 0.2, penalty=0.05, kreg=2, randomized=False, boundary_inclusive=True
    ),
}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", ROWS * K)


def _tie_heavy(kind, n, seed):
    """Gaussian rows, except that the two rows at every block edge and every
    third row take values from {-1, 0, 2}, so they hold ties after softmax."""
    rng = np.random.default_rng(seed)
    z = 3.0 * rng.standard_normal((n, K))
    rows = np.arange(n)
    tied = (rows % ROWS == 0) | (rows % ROWS == ROWS - 1) | (rows % 3 == 0)
    z[tied] = rng.choice([-1.0, 0.0, 2.0], size=(int(tied.sum()), K))
    m = cset.ScoreMatrix(z, rng.integers(0, K, n), "logits")
    return m if kind == "logits" else cset.softmax(m, 0.7)


def _model(tmp_path, name):
    cal = cset.softmax(_tie_heavy("logits", 300, seed=99), 0.7)
    model = cset.calibrate(cset.sort_scores(cal, seed=4), cal.labels, SPECS[name], seed=5)
    path = str(tmp_path / f"{name}.txt")
    cset.save_model(model, path)
    return path


def _whole_matrix_predict(model_path, input_path, temperature, seed):
    """predictions.csv as the whole-matrix predict wrote it, and the sort."""
    model = load_model(model_path)
    m = cset.load_scores(input_path)
    if m.kind == "logits":
        m = cset.softmax(m, temperature)
    ss = cset.sort_scores(m, seed)
    u = seeds.rng(seed, seeds.EVAL_U).random(ss.n) if model.spec.randomized else None
    sizes = set_sizes(model, ss, u)
    lines = []
    for i in range(ss.n):
        classes = ss.perm[i, : sizes[i]]
        lines.append(",".join([str(i), str(int(sizes[i]))] + [str(int(c)) for c in classes]))
    return ("\n".join(lines) + "\n").encode(), ss


def _predict(tmp_path, model_path, input_path, temperature=None, seed=3):
    out = tmp_path / "out"
    argv = ["predict", "--model", model_path, "--input", input_path,
            "--seed", str(seed), "--out", str(out)]
    if temperature is not None:
        argv += ["--temperature", str(temperature)]
    return main(argv), out / "predictions.csv"


@pytest.mark.parametrize("n", [5, 3 * ROWS + 7, 4 * ROWS])
@pytest.mark.parametrize("model_name", sorted(SPECS))
@pytest.mark.parametrize("kind", ["logits", "probabilities"])
@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_blocks_give_the_bytes_of_the_whole_matrix_pass(
    tmp_path, small_blocks, fmt, kind, model_name, n
):
    path = str(tmp_path / f"new.{fmt}")
    cset.save_scores(_tie_heavy(kind, n, seed=n), path, fmt)
    model_path = _model(tmp_path, model_name)
    t = 0.5 if kind == "logits" else None
    code, out = _predict(tmp_path, model_path, path, t)
    assert code == 0
    want, ss = _whole_matrix_predict(model_path, path, t, seed=3)
    assert out.read_bytes() == want
    # the rows on both sides of every block edge hold ties
    tied = (ss.sorted[:, 1:] == ss.sorted[:, :-1]).any(axis=1)
    edges = [r for lo in range(ROWS, n, ROWS) for r in (lo - 1, lo)]
    assert tied[edges].all() and tied[0]
    assert not (tmp_path / "out" / "predictions.csv.partial").exists()


# --- bad input fails with exit 1 and leaves no predictions.csv -------------

@pytest.fixture
def logits_file(tmp_path):
    path = tmp_path / "new.bin"
    cset.save_scores(_tie_heavy("logits", 3 * ROWS + 7, seed=1), str(path), "binary")
    return path


@pytest.fixture
def no_block_reads(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a score block was read before the input was checked")

    monkeypatch.setattr(score_store, "_read_rows", forbidden)


def _assert_refused(tmp_path, capsys, model_path, input_path, message):
    code, out = _predict(tmp_path, model_path, str(input_path), temperature=0.5)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out" / "predictions.csv.partial").exists()


def test_nan_in_the_last_row_names_its_row_in_the_file(
    tmp_path, capsys, small_blocks, logits_file
):
    n = 3 * ROWS + 7
    blob = bytearray(logits_file.read_bytes())
    at = HEAD + 4 * ((n - 1) * K + 2)
    blob[at:at + 4] = struct.pack("<f", float("nan"))
    logits_file.write_bytes(bytes(blob))
    _assert_refused(tmp_path, capsys, _model(tmp_path, "randomized"), logits_file,
                    f"non-finite score in row {n - 1}")


def test_truncated_file_is_refused_before_any_block(
    tmp_path, capsys, small_blocks, logits_file, no_block_reads
):
    logits_file.write_bytes(logits_file.read_bytes()[:-3])
    _assert_refused(tmp_path, capsys, _model(tmp_path, "randomized"), logits_file,
                    "truncated")


def test_label_out_of_range_is_refused_before_any_block(
    tmp_path, capsys, small_blocks, logits_file, no_block_reads
):
    blob = bytearray(logits_file.read_bytes())
    blob[-4:] = struct.pack("<I", K)
    logits_file.write_bytes(bytes(blob))
    n = 3 * ROWS + 7
    _assert_refused(tmp_path, capsys, _model(tmp_path, "randomized"), logits_file,
                    f"label out of range in row {n - 1}: {K} not in [0, {K})")


def test_model_for_another_k_is_refused_before_any_block(
    tmp_path, capsys, small_blocks, no_block_reads
):
    rng = np.random.default_rng(2)
    other = cset.ScoreMatrix(rng.standard_normal((20, K - 1)), np.zeros(20, int), "logits")
    path = tmp_path / "other.bin"
    cset.save_scores(other, str(path), "binary")
    _assert_refused(tmp_path, capsys, _model(tmp_path, "randomized"), path,
                    f"model was calibrated for K={K}, scores have K={K - 1}")


def test_bad_kind_flag_is_refused_before_any_block(
    tmp_path, capsys, small_blocks, logits_file, no_block_reads
):
    blob = bytearray(logits_file.read_bytes())
    blob[len(b"CSET1")] = 7
    logits_file.write_bytes(bytes(blob))
    _assert_refused(tmp_path, capsys, _model(tmp_path, "randomized"), logits_file,
                    "bad kind flag 7")


# --- memory -----------------------------------------------------------------

def test_predict_memory_is_bounded_by_the_block(tmp_path):
    n, k = 8192, 500
    rng = np.random.default_rng(0)
    with open(tmp_path / "new.bin", "wb") as fh:
        fh.write(b"CSET1" + struct.pack("<BQQ", 0, n, k))
        fh.write(rng.standard_normal((n, k), dtype=np.float32).tobytes())
        fh.write(rng.integers(0, k, n).astype("<u4").tobytes())
    model = ConformalModel(MethodSpec("raps", 0.1, penalty=0.01, kreg=5), 0.9, 1000, 0, k)
    cset.save_model(model, str(tmp_path / "model.txt"))
    tracemalloc.start()
    try:
        code, _ = _predict(tmp_path, str(tmp_path / "model.txt"),
                           str(tmp_path / "new.bin"), temperature=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    one_matrix = n * k * 8  # one float64 n x K array; whole-matrix predict held six
    assert peak < one_matrix / 4, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("step", ["softmax", "take"])
def test_softmax_and_take_hold_their_result_without_a_second_copy(step):
    rng = np.random.default_rng(1)
    m = cset.ScoreMatrix(rng.standard_normal((2000, 500)), rng.integers(0, 500, 2000), "logits")
    tracemalloc.start()
    try:
        out = cset.softmax(m, 2.0) if step == "softmax" else m.take(np.arange(2000)[::-1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m.scores.nbytes, f"traced peak {peak / 2**20:.1f} MB"
    assert not out.scores.flags.writeable and not out.labels.flags.writeable
