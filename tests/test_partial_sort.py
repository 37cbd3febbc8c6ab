"""Sorting only the ranks a set or a label can reach.

``sort_scores(..., _width=w)`` keeps the first w columns of the sort; below K
they come from a partial sort. Every width must give the full sort's bits in
those columns, and everything read from them (label ranks, the label cells,
calibrated thresholds, set sizes, the listed classes) must equal the full
sort's, or be refused with ValueError when the width is too narrow. It must
never be short.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cset
from cset import score_store
from cset.cli import main
from cset.conformal import ConformalModel, MethodSpec, _sizer, calibrate, set_sizes_many
from cset.score_store import ScoreMatrix, _LabelCells, sort_scores
from cset.tuning import fit_model


def _bits(a: np.ndarray) -> np.ndarray:
    """float64 cells as their bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def partial_cases(draw):
    """(matrix, labels, u, models): rows thick with exact ties and zeros,
    some zeros stored as -0.0, and labels at rank 1, at rank K or anywhere."""
    k = draw(st.integers(2, 50))
    n = draw(st.integers(1, 7))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = g.integers(0, 4, (n, k)).astype(float)  # ties within and across any width edge
    smooth = g.random(n) < 0.3
    counts[smooth] = g.random((int(smooth.sum()), k))  # tie-free rows
    counts[np.arange(n), g.integers(0, k, n)] += 1.0  # no empty row
    probs = counts / counts.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        signed = (probs == 0) & (g.random((n, k)) < 0.5) & (np.arange(n) % 3 == 0)[:, None]
        probs[signed] = -0.0
    m = ScoreMatrix(probs, np.zeros(n, dtype=int), "probabilities")
    assert not np.signbit(m.scores).any()  # each -0.0 is stored as 0.0
    perm = sort_scores(m, seed=5, first_row=3).perm
    where = g.integers(0, 3, n)  # rank 1, rank K, or any class
    labels = np.where(where == 0, perm[:, 0], np.where(where == 1, perm[:, -1],
                                                       g.integers(0, k, n)))
    u = g.random(n)
    u[g.random(n) < 0.2] = 1.0
    lam = draw(st.sampled_from([0.02, 0.1, 0.3]))
    kreg = draw(st.integers(1, k))
    tau = draw(st.one_of(st.floats(-0.1, 1.6), st.just(math.inf)))
    specs = [MethodSpec("raps", 0.1, lam, kreg),
             MethodSpec("raps", 0.1, lam, kreg, randomized=False),
             MethodSpec("raps", 0.1, lam, kreg, randomized=False, boundary_inclusive=True),
             MethodSpec("aps", 0.1), MethodSpec("lac", 0.1), MethodSpec("naive", 0.1)]
    models = [ConformalModel(spec, tau, 10, 0, k) for spec in specs]
    k_star = draw(st.integers(1, k))
    fixed = MethodSpec("fixed_k", 0.1, randomized=draw(st.booleans()))
    models.append(ConformalModel(fixed, math.inf, 10, 0, k, k_star=k_star,
                                 mix_prob=draw(st.floats(0.0, 1.0))))
    return m, labels, u, models


@pytest.mark.parametrize("block_rows", [1, 3])
@settings(max_examples=60)
@given(case=partial_cases())
def test_every_width_gives_the_full_sorts_bits(block_rows, case):
    m, labels, u, models = case
    n, k = m.scores.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(score_store, "_BLOCK_CELLS", block_rows * k)
        full = sort_scores(m, seed=5, first_row=3)
        ranks = full.label_ranks(labels)
        cells = full.label_cells(labels)
        spec = MethodSpec("raps", 0.1, 0.05, 2)
        taus = [calibrate(full, labels, s, seed=4).tau_hat
                for s in (spec, MethodSpec("aps", 0.1, randomized=False), MethodSpec("lac", 0.1))]
        fixed = fit_model(full, labels, MethodSpec("fixed_k", 0.1), 4)
        sizes = [set_sizes_many((model,), full, u)[0] for model in models]
        deepest = int(np.count_nonzero(m.scores >= m.scores[np.arange(n), labels][:, None],
                                       axis=1).max())
        for w in range(1, k + 1):
            part = sort_scores(m, seed=5, first_row=3, _width=w)
            assert part.n_classes == k and part.sorted.shape == (n, w)
            assert np.array_equal(_bits(part.sorted), _bits(full.sorted[:, :w]))
            assert np.array_equal(_bits(part.cumsum), _bits(full.cumsum[:, :w]))
            assert np.array_equal(part.label_ranks(labels), ranks)
            if w >= deepest:  # what calibrate sorts: every label's run of equal values
                for got, want in zip(part.label_cells(labels), cells):
                    assert np.array_equal(_bits(got.astype(float)), _bits(want.astype(float)))
                streamed = _LabelCells(labels, *part.label_cells(labels), k)
                for s, tau in zip((spec, MethodSpec("aps", 0.1, randomized=False),
                                   MethodSpec("lac", 0.1)), taus):
                    assert repr(calibrate(part, labels, s, seed=4).tau_hat) == repr(tau)
                    assert repr(fit_model(streamed, labels, s, 4).tau_hat) == repr(tau)
                assert fit_model(streamed, labels, MethodSpec("fixed_k", 0.1), 4) == fixed
            for model, want in zip(models, sizes):
                need = min(k, _sizer((model,), k).reach + 1)
                assert want.max() < need or need == k
                try:
                    got = set_sizes_many((model,), part, u)[0]
                except ValueError:
                    assert w < need  # refused, never sized short
                    continue
                assert np.array_equal(got, want)
                if w >= min(k, int(want.max()) + 1):
                    assert part.top_classes(got) == full.top_classes(want)
                else:
                    with pytest.raises(ValueError):
                        part.top_classes(got)


def test_a_sort_too_narrow_for_the_reach_is_refused():
    """At the paper's ImageNet setting no raps set passes rank 98 of 1000, so
    predict sorts 99 columns. A sort narrower than a cut is refused, never
    sized short; flat rows at u = 0 cut exactly at their set size."""
    g = np.random.default_rng(2)
    k = 1000
    m = ScoreMatrix(np.full((4, k), 1.0 / k), g.integers(0, k, 4), "probabilities")
    model = ConformalModel(MethodSpec("raps", 0.1, 0.01, 5), 0.93, 1000, 0, k)
    assert _sizer((model,), k).reach == 98
    u = np.zeros(4)
    want = cset.set_sizes(model, sort_scores(m), u)
    deepest = int(want.max())
    assert deepest > 80
    for w in range(1, 100):
        narrow = sort_scores(m, _width=w)
        if w <= deepest:
            with pytest.raises(ValueError, match="sorted columns"):
                cset.set_sizes(model, narrow, u)
        else:
            assert np.array_equal(cset.set_sizes(model, narrow, u), want)
    # naive and aps reach K: a narrow sort of rows whose sets pass it is refused too.
    for spec in (MethodSpec("naive", 0.1), MethodSpec("aps", 0.1)):
        wide = ConformalModel(spec, 0.9, 1000, 0, k)
        with pytest.raises(ValueError, match="sorted columns"):
            cset.set_sizes(wide, sort_scores(m, _width=500), u)
    with pytest.raises(ValueError, match="sorted columns"):
        sort_scores(m, _width=99).top_classes(np.full(4, 99))


@pytest.mark.parametrize("model", [
    ConformalModel(MethodSpec("fixed_k", 0.1), math.inf, 100, 0, 12, k_star=3, mix_prob=0.0),
    ConformalModel(MethodSpec("raps", 0.1, 0.2, 2, randomized=False, boundary_inclusive=True),
                   0.75, 100, 0, 12),
])
def test_predict_lists_the_classes_of_the_full_sort(tmp_path, monkeypatch, model):
    """Every set of the fixed_k model reaches k_star, its reach, so the edge
    check of top_classes reads the one column past it; the rows tie at and
    across that edge."""
    g = np.random.default_rng(4)
    n, k = 40, 12
    counts = g.integers(0, 3, (n, k)) + (np.arange(k) == 0)
    m = ScoreMatrix(counts / counts.sum(axis=1, keepdims=True), g.integers(0, k, n),
                    "probabilities")
    cset.save_scores(m, str(tmp_path / "new.bin"))
    cset.save_model(model, str(tmp_path / "model.txt"))
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", 7 * k)
    assert main(["predict", "--model", str(tmp_path / "model.txt"), "--input",
                 str(tmp_path / "new.bin"), "--seed", "3", "--out", str(tmp_path / "out")]) == 0
    full = sort_scores(cset.load_scores(str(tmp_path / "new.bin")), seed=3)
    u = cset.seeds.rng(3, cset.seeds.EVAL_U).random(n) if model.spec.randomized else None
    sizes = cset.set_sizes(model, full, u)
    want = [",".join(map(str, [i, size, *classes]))
            for i, (size, classes) in enumerate(zip(sizes.tolist(), full.top_classes(sizes)))]
    assert (tmp_path / "out" / "predictions.csv").read_text().splitlines() == want


def _write_logits(path, n, k, seed):
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(b"CSET1" + struct.pack("<BQQ", 0, n, k))
        fh.write(rng.standard_normal((n, k), dtype=np.float32).tobytes())
        fh.write(rng.integers(0, k, n).astype("<u4").tobytes())


@pytest.mark.parametrize("method", ["raps", "fixed_k"])
def test_calibrate_memory_is_bounded_by_the_block(tmp_path, method):
    n, k = 2000, 1000
    _write_logits(tmp_path / "cal.bin", n, k, 0)
    argv = ["calibrate", "--input", str(tmp_path / "cal.bin"), "--temperature", "1.0",
            "--method", method, "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # A row block and its sort are 512 KB each of float64; the whole sorted
    # split held 24 bytes a cell, 46 MB here.
    block = score_store._BLOCK_CELLS * 8
    assert peak < 12 * block, f"traced peak {peak / 2**20:.1f} MB"


def test_tune_sorts_a_probability_csv_without_copying_it(tmp_path, monkeypatch):
    n, k = 2000, 500
    rng = np.random.default_rng(1)
    m = ScoreMatrix(rng.dirichlet(np.ones(k), n), rng.integers(0, k, n), "probabilities")
    cset.save_scores(m, str(tmp_path / "p.csv"), "csv")
    seen = []
    real = cset.cli.tune

    def at_tune(*args, **kwargs):
        seen.append(tracemalloc.get_traced_memory()[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cset.cli, "tune", at_tune)
    tracemalloc.start()
    try:
        code = main(["tune", "--input", str(tmp_path / "p.csv"), "--out", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert code == 0
    # Loaded and sorted: the matrix, sorted and cumsum take 24 bytes a cell;
    # a joined copy of the loaded matrix would add 8 more.
    assert seen[0] / (n * k) < 28, f"peak before tuning {seen[0] / (n * k):.1f} bytes per cell"
