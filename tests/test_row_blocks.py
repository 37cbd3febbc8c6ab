"""One row-block rule, and one sizer set up once per block walk.

``cset predict`` sizes every row block of its input through one sizer: the
models' K check, grouping, penalty vectors and buffers are set up once per
run, not once per block.
"""

import dataclasses

import numpy as np
import pytest

import cset
import cset.conformal
from cset import score_store
from cset.cli import main
from cset.conformal import MethodSpec, _sizer, set_sizes_many

K = 7
ROWS = 16  # rows per block under the small_blocks fixture


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", ROWS * K)


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call is counted in the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_predict_sets_up_its_sizer_once_for_all_blocks(tmp_path, monkeypatch, small_blocks, fmt):
    g = np.random.default_rng(8)
    n = 3 * ROWS + 5  # four blocks, the last one short
    cal = cset.ScoreMatrix(g.dirichlet(np.ones(K), 200), g.integers(0, K, 200), "probabilities")
    spec = MethodSpec("raps", 0.1, penalty=0.05, kreg=2)
    model = cset.calibrate(cset.sort_scores(cal, seed=1), cal.labels, spec, seed=2)
    cset.save_model(model, str(tmp_path / "model.txt"))
    m = cset.ScoreMatrix(g.dirichlet(np.ones(K), n), g.integers(0, K, n), "probabilities")
    cset.save_scores(m, str(tmp_path / "scores"), fmt)
    penalties = _counting(monkeypatch, cset.conformal, "_penalty_vector")
    argv = ["predict", "--model", str(tmp_path / "model.txt"), "--input",
            str(tmp_path / "scores"), "--seed", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(penalties) == 1
    lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines] == list(range(n))


@pytest.mark.parametrize("k", [2, 7, 1000])
@pytest.mark.parametrize("times, plus", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)])
def test_row_blocks_cover_the_rows_in_consecutive_blocks_only_the_last_short(k, times, plus):
    rows = score_store._BLOCK_CELLS // k
    n = times * rows + plus
    blocks = list(score_store._row_blocks(n, k))
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(b.stop - b.start == rows for b in blocks[:-1])
    assert 1 <= blocks[-1].stop - blocks[-1].start <= rows
    assert len(blocks) == -(-n // rows)


def test_a_row_wider_than_a_block_is_a_block_of_its_own():
    k = score_store._BLOCK_CELLS + 1
    assert list(score_store._row_blocks(3, k)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_a_csv_walks_as_its_matrix_and_a_binary_file_in_the_same_blocks(tmp_path, small_blocks):
    g = np.random.default_rng(3)
    n = 3 * ROWS + 2
    m = cset.ScoreMatrix(g.dirichlet(np.ones(K), n), g.integers(0, K, n), "probabilities")
    cset.save_scores(m, str(tmp_path / "s.csv"), "csv")
    cset.save_scores(m, str(tmp_path / "s.bin"), "binary")
    from_csv = score_store.open_scores(str(tmp_path / "s.csv"))
    from_bin = score_store.open_scores(str(tmp_path / "s.bin"))
    assert type(from_csv) is cset.ScoreMatrix
    assert [f.name for f in dataclasses.fields(from_bin)] == ["path", "kind", "n_classes", "labels"]
    csv_blocks, bin_blocks = list(from_csv.blocks()), list(from_bin.blocks())
    starts = list(range(0, n, ROWS))
    assert [lo for lo, _ in csv_blocks] == [lo for lo, _ in bin_blocks] == starts
    for (lo, a), (_, b) in zip(csv_blocks, bin_blocks):
        np.testing.assert_array_equal(a.scores, m.scores[lo:lo + ROWS])
        np.testing.assert_array_equal(b.scores, m.scores[lo:lo + ROWS].astype(np.float32))
        np.testing.assert_array_equal(a.labels, b.labels)


def test_one_sizer_steps_through_any_blocks_as_set_sizes_many_sizes_the_whole(small_blocks):
    g = np.random.default_rng(5)
    n = 5 * ROWS + 3
    cal = cset.ScoreMatrix(g.dirichlet(np.ones(K), 300), g.integers(0, K, 300), "probabilities")
    ss_cal = cset.sort_scores(cal, seed=1)
    models = [cset.naive_model(0.1, K), cset.naive_model(0.1, K, randomized=False),
              cset.make_fixed_k_model(ss_cal, cal.labels, 0.1, seed=2)]
    for spec in (MethodSpec("aps", 0.1), MethodSpec("lac", 0.1),
                 MethodSpec("raps", 0.1, penalty=0.05, kreg=2),
                 MethodSpec("raps", 0.1, penalty=0.05, kreg=2, randomized=False,
                            boundary_inclusive=True)):
        models.append(cset.calibrate(ss_cal, cal.labels, spec, seed=3))
    m = cset.ScoreMatrix(g.dirichlet(np.ones(K), n), g.integers(0, K, n), "probabilities")
    u = g.random(n)
    want = set_sizes_many(models, cset.sort_scores(m, seed=4), u)
    step = _sizer(models, K)
    got = [[] for _ in models]
    for lo in range(0, n, 2 * ROWS + 5):  # blocks that are not the sizer's own
        part = m.take(slice(lo, lo + 2 * ROWS + 5))
        for sizes, block_sizes in zip(got, step(cset.sort_scores(part, 4, lo), u[lo:lo + part.n])):
            sizes.append(block_sizes)
    for model, a, b in zip(models, want, got):
        np.testing.assert_array_equal(np.concatenate(b), a, err_msg=repr(model.spec))
