import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cset
from cset import score_store, seeds
from cset.score_store import DataError, ScoreMatrix, SplitSpec

from conftest import dirichlet_matrix, logit_matrices


def test_matrix_validation_rejects_bad_shapes():
    with pytest.raises(DataError):
        ScoreMatrix(np.zeros((0, 3)), np.zeros(0, dtype=int), "probabilities")
    with pytest.raises(DataError):
        ScoreMatrix(np.full((2, 1), 1.0), np.zeros(2, dtype=int), "probabilities")
    with pytest.raises(DataError):
        ScoreMatrix(np.full((2, 3), 1 / 3), np.zeros(3, dtype=int), "probabilities")


def test_matrix_validation_reports_offending_row():
    scores = np.full((4, 2), 0.5)
    scores[2, 0] = np.nan
    with pytest.raises(DataError, match="row 2"):
        ScoreMatrix(scores, np.zeros(4, dtype=int), "probabilities")

    labels = np.array([0, 1, 0, 5])
    with pytest.raises(DataError, match="row 3"):
        ScoreMatrix(np.full((4, 2), 0.5), labels, "probabilities")


def test_row_sum_bands():
    base = np.array([[0.6, 0.4]])
    labels = np.array([0])
    # within 1e-6: accepted untouched
    m = ScoreMatrix(base * (1 + 5e-7), labels, "probabilities")
    assert m.scores[0, 0] == pytest.approx(0.6 * (1 + 5e-7), abs=0)
    # within 1e-3: renormalized to sum 1
    m = ScoreMatrix(base * (1 + 5e-4), labels, "probabilities")
    assert m.scores.sum() == pytest.approx(1.0, abs=1e-12)
    # beyond 1e-3: rejected
    with pytest.raises(DataError):
        ScoreMatrix(base * (1 + 5e-3), labels, "probabilities")


def test_matrix_is_frozen_and_copies_input():
    raw = np.array([[0.6, 0.4]])
    m = ScoreMatrix(raw, np.array([0]), "probabilities")
    raw[0, 0] = 100.0
    assert m.scores[0, 0] == 0.6
    with pytest.raises(ValueError):
        m.scores[0, 0] = 0.0


def test_softmax_hand_example():
    m = ScoreMatrix(np.array([[math.log(3.0), 0.0]]), np.array([0]), "logits")
    p = cset.softmax(m)
    assert p.kind == "probabilities"
    np.testing.assert_allclose(p.scores, [[0.75, 0.25]], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 6))
    m1 = ScoreMatrix(z, np.zeros(20, dtype=int), "logits")
    m2 = ScoreMatrix(z + 37.5, np.zeros(20, dtype=int), "logits")
    np.testing.assert_allclose(
        cset.softmax(m1).scores, cset.softmax(m2).scores, atol=1e-12
    )


def test_softmax_preserves_ranking():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(50, 8))
    m = ScoreMatrix(z, np.zeros(50, dtype=int), "logits")
    for t in (0.3, 1.0, 4.0):
        p = cset.softmax(m, temperature=t)
        np.testing.assert_array_equal(
            np.argsort(-p.scores, axis=1, kind="stable"),
            np.argsort(-z, axis=1, kind="stable"),
        )


def test_sort_identity_on_random_matrix():
    rng = np.random.default_rng(7)
    scores = rng.random((10, 7))
    scores /= scores.sum(axis=1, keepdims=True)
    m = ScoreMatrix(scores, np.zeros(10, dtype=int), "probabilities")
    ss = cset.sort_scores(m, seed=3)
    for i in range(10):
        for j in range(7):
            assert ss.sorted[i, j] == m.scores[i, ss.perm[i, j]]
    # descending rows
    assert (np.diff(ss.sorted, axis=1) <= 0).all()


def test_sort_tie_break_is_seeded_and_deterministic():
    scores = np.full((200, 4), 0.25)
    m = ScoreMatrix(scores, np.zeros(200, dtype=int), "probabilities")
    a = cset.sort_scores(m, seed=5)
    b = cset.sort_scores(m, seed=5)
    c = cset.sort_scores(m, seed=6)
    np.testing.assert_array_equal(a.perm, b.perm)
    assert (a.perm != c.perm).any()
    # all-tied rows should not systematically favor low class indices
    assert len(np.unique(a.perm[:, 0])) == 4


def test_label_ranks_one_based(three_class_sorted):
    ranks = three_class_sorted.label_ranks(np.array([0]))
    assert ranks[0] == 1


def _fresh_ranks(ss, labels):
    """Each label's 1-based place in its row of ``perm``: a lookup, not a count."""
    return np.argmax(ss.perm == np.asarray(labels)[:, None], axis=1) + 1


def test_label_ranks_memo_returns_the_same_ranks_for_equal_labels():
    m = dirichlet_matrix(50, 6, seed=3)
    ss = cset.sort_scores(m, seed=1)
    first = ss.label_ranks(m.labels)
    again = ss.label_ranks(m.labels.copy())
    np.testing.assert_array_equal(again, first)
    np.testing.assert_array_equal(first, _fresh_ranks(ss, m.labels))


def test_label_ranks_memo_recomputes_for_other_labels():
    m = dirichlet_matrix(50, 6, seed=4)
    ss = cset.sort_scores(m, seed=1)
    ss.label_ranks(m.labels)
    other = (m.labels + 1) % 6
    np.testing.assert_array_equal(ss.label_ranks(other), _fresh_ranks(ss, other))
    # and back: the memo holds the last labels only, and is still right
    np.testing.assert_array_equal(ss.label_ranks(m.labels), _fresh_ranks(ss, m.labels))


def test_label_ranks_result_is_read_only():
    m = dirichlet_matrix(20, 4, seed=5)
    ranks = cset.sort_scores(m, seed=0).label_ranks(m.labels)
    assert not ranks.flags.writeable
    with pytest.raises(ValueError):
        ranks[0] = 99


def test_label_ranks_memo_ignores_later_changes_to_the_callers_labels():
    m = dirichlet_matrix(30, 5, seed=6)
    ss = cset.sort_scores(m, seed=2)
    labels = m.labels.copy()
    first = ss.label_ranks(labels)
    before = first.copy()
    labels[:] = (labels + 2) % 5
    np.testing.assert_array_equal(ss.label_ranks(labels), _fresh_ranks(ss, labels))
    np.testing.assert_array_equal(first, before)


def _whole_matrix_ranks(perm, labels):
    """label_ranks as it was: one n x K inverse permutation."""
    n, k = perm.shape
    inv = np.empty_like(perm)
    np.put_along_axis(inv, perm, np.broadcast_to(np.arange(k), (n, k)), axis=1)
    return inv[np.arange(n), labels] + 1


@pytest.mark.parametrize("n", [1, 3, 4, 13, 40])
def test_label_ranks_in_row_blocks_match_the_whole_matrix_inverse(monkeypatch, n):
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", 4 * 6)  # 4 rows per block
    m = dirichlet_matrix(n, 6, seed=n)
    ss = cset.sort_scores(m, seed=3)
    ranks = ss.label_ranks(m.labels)
    want = _whole_matrix_ranks(ss.perm, m.labels)
    assert ranks.dtype == want.dtype
    np.testing.assert_array_equal(ranks, want)


@pytest.mark.parametrize("bad", [-1, 6, 100])
def test_label_ranks_refuses_labels_outside_the_classes(bad):
    m = dirichlet_matrix(9, 6, seed=1)
    ss = cset.sort_scores(m, seed=0)
    labels = m.labels.copy()
    labels[5] = bad
    with pytest.raises(DataError, match="row 5"):
        ss.label_ranks(labels)


def test_cumsum_matches_sorted(three_class_sorted):
    np.testing.assert_allclose(
        three_class_sorted.cumsum, np.cumsum(three_class_sorted.sorted, axis=1)
    )


def test_split_partitions_are_disjoint_and_cover():
    m = dirichlet_matrix(10, 4, seed=1)
    parts = cset.split(m, SplitSpec(seed=7, sizes=(2, 4, 4)))
    assert all(p is not None for p in parts)
    assert [p.n for p in parts] == [2, 4, 4]
    rows = np.concatenate([p.scores for p in parts])
    # every original row appears exactly once in the union
    orig = np.sort(m.scores, axis=0)
    np.testing.assert_allclose(np.sort(rows, axis=0), orig)


def test_split_reproducible_and_seed_sensitive():
    m = dirichlet_matrix(100, 5, seed=2)
    a1 = cset.split(m, SplitSpec(seed=11, sizes=(50, 50, 0)))
    a2 = cset.split(m, SplitSpec(seed=11, sizes=(50, 50, 0)))
    b = cset.split(m, SplitSpec(seed=12, sizes=(50, 50, 0)))
    np.testing.assert_array_equal(a1[0].scores, a2[0].scores)
    assert a1[2] is None and a2[2] is None
    assert (a1[0].scores != b[0].scores).any()


def test_split_fractions_and_errors():
    m = dirichlet_matrix(10, 3, seed=3)
    parts = cset.split(m, SplitSpec(seed=0, sizes=(0.5, 0.5, 0.0)))
    assert parts[0].n + parts[1].n == 10
    with pytest.raises(ValueError):
        SplitSpec(seed=0, sizes=(6, 6, 6)).resolve(10)
    with pytest.raises(ValueError):
        SplitSpec(seed=0, sizes=(0.9, 0.9, 0.0)).resolve(10)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_round_trip(tmp_path, fmt):
    m = dirichlet_matrix(17, 5, seed=4)
    path = str(tmp_path / f"scores.{fmt}")
    cset.save_scores(m, path, fmt=fmt)
    back = cset.load_scores(path, fmt=fmt)
    assert back.kind == m.kind
    np.testing.assert_array_equal(back.labels, m.labels)
    if fmt == "csv":
        np.testing.assert_allclose(back.scores, m.scores, atol=1e-9)
    else:
        np.testing.assert_allclose(back.scores, m.scores, atol=1e-6)


def test_binary_round_trip_bit_exact_for_f32_data(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.random((8, 4), dtype=np.float32)
    raw /= raw.sum(axis=1, keepdims=True).astype(np.float32)
    m = ScoreMatrix(raw.astype(np.float64), np.arange(8) % 4, "probabilities")
    path = str(tmp_path / "scores.bin")
    cset.save_scores(m, path, fmt="binary")
    back = cset.load_scores(path)
    assert (back.scores.astype(np.float32) == raw).all()


def test_csv_round_trip_is_exact_via_repr(tmp_path):
    m = dirichlet_matrix(6, 3, seed=6)
    path = str(tmp_path / "scores.csv")
    cset.save_scores(m, path, fmt="csv")
    back = cset.load_scores(path, fmt="auto")
    np.testing.assert_array_equal(back.scores, m.scores)


def test_format_autodetect(tmp_path):
    m = dirichlet_matrix(5, 3, seed=7)
    for fmt in ("csv", "binary"):
        path = str(tmp_path / f"x.{fmt}")
        cset.save_scores(m, path, fmt=fmt)
        assert cset.load_scores(path, fmt="auto").n == 5


def test_csv_header_and_kind_inference(tmp_path):
    path = tmp_path / "logits.csv"
    path.write_text("scores,K=3\n1.5,-0.5,0.25,2\n-1.0,0.0,1.0,0\n")
    m = cset.load_scores(str(path))
    assert m.kind == "logits"
    assert m.n == 2 and m.n_classes == 3
    np.testing.assert_array_equal(m.labels, [2, 0])


def test_csv_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scores,K=3\n0.5,0.3,0.2,0\n0.5,0.3,0\n")
    with pytest.raises(DataError, match="row 1"):
        cset.load_scores(str(path))

    path2 = tmp_path / "bad_header.csv"
    path2.write_text("scores\n0.5,0.5,0\n")
    with pytest.raises(DataError, match="header"):
        cset.load_scores(str(path2))


def test_csv_malformed_values_name_their_row(tmp_path):
    for bad in ("0.5,x,0.2,0", "0.5,0.3,0.2,1.5"):
        path = tmp_path / "bad.csv"
        path.write_text(f"scores,K=3\n0.5,0.3,0.2,0\n{bad}\n")
        with pytest.raises(DataError, match="row 1 has a malformed value"):
            cset.load_scores(str(path))


def test_csv_load_holds_under_four_matrices(tmp_path):
    n, k = 1000, 300
    rng = np.random.default_rng(2)
    m = ScoreMatrix(rng.standard_normal((n, k)), rng.integers(0, k, n), "logits")
    path = str(tmp_path / "x.csv")
    cset.save_scores(m, path, fmt="csv")
    tracemalloc.start()
    try:
        loaded = cset.load_scores(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.scores, m.scores)
    one_matrix = n * k * 8  # a list of Python floats per row took about six
    assert peak < 4 * one_matrix, f"traced peak {peak / 2**20:.1f} MB"


def test_binary_truncation_and_magic_errors(tmp_path):
    m = dirichlet_matrix(5, 3, seed=8)
    path = tmp_path / "x.bin"
    cset.save_scores(m, str(path), fmt="binary")
    blob = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(blob[:-3])
    with pytest.raises(DataError, match="truncat"):
        cset.load_scores(str(tmp_path / "trunc.bin"))

    (tmp_path / "magic.bin").write_bytes(b"NOPE!" + blob[5:])
    with pytest.raises(DataError, match="magic"):
        cset.load_scores(str(tmp_path / "magic.bin"))


def test_take_preserves_alignment():
    m = dirichlet_matrix(9, 4, seed=9)
    sub = m.take(np.array([8, 0, 3]))
    np.testing.assert_array_equal(sub.labels, m.labels[[8, 0, 3]])
    np.testing.assert_array_equal(sub.scores, m.scores[[8, 0, 3]])


@given(st.integers(2, 30), st.integers(1, 40), st.integers(0, 10_000))
def test_sort_is_bijection_property(k, n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, k))
    scores /= scores.sum(axis=1, keepdims=True)
    m = ScoreMatrix(scores, np.zeros(n, dtype=int), "probabilities")
    ss = cset.sort_scores(m, seed=seed)
    # perm applied to sorted recovers the original row exactly
    recovered = np.take_along_axis(ss.sorted, np.argsort(ss.perm, axis=1), 1)
    np.testing.assert_array_equal(recovered, m.scores)


# --- sort_scores against the full-matrix lexsort it replaces --------------

ROW_SHAPES = ("tie_free", "sparse", "integer", "all_equal")
# Rows per row block in the sort tests below, so that a few dozen rows span
# several blocks of the sort and of the tie order, the last one partial.
SORT_ROWS = 16


@contextlib.contextmanager
def _sort_blocks(k):
    """Inside the with block, every row block holds SORT_ROWS rows of K cells."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(score_store, "_BLOCK_CELLS", SORT_ROWS * k)
        yield


def _rows(shape, n, k, seed):
    rng = np.random.default_rng(seed)
    if shape == "tie_free":
        x = rng.random((n, k)) + 0.01
    elif shape == "sparse":
        # zero tails next to a few positive classes, as in float32-underflowed
        # Dirichlet rows
        x = rng.random((n, k))
        x[rng.random((n, k)) < 0.6] = 0.0
        x[np.arange(n), rng.integers(0, k, n)] += 1.0
    elif shape == "integer":
        x = rng.integers(1, 4, (n, k)).astype(float)
    else:
        x = np.ones((n, k))
    x /= x.sum(axis=1, keepdims=True)
    return ScoreMatrix(x, rng.integers(0, k, n), "probabilities")


def _lexsort_reference(m, seed):
    keys = seeds.rng(seed, seeds.TIEBREAK).random(m.scores.shape)
    perm = np.lexsort((keys, -m.scores), axis=1)
    srt = np.take_along_axis(m.scores, perm, axis=1)
    return perm, srt, np.cumsum(srt, axis=1)


def _assert_matches_reference(m, seed):
    ss = cset.sort_scores(m, seed=seed)
    perm, srt, cumsum = _lexsort_reference(m, seed)
    assert ss.perm.dtype == perm.dtype
    np.testing.assert_array_equal(ss.perm, perm)
    assert ss.sorted.tobytes() == srt.tobytes()
    assert ss.cumsum.tobytes() == cumsum.tobytes()


@given(
    st.sampled_from(ROW_SHAPES),
    st.integers(1, 3 * SORT_ROWS + 7),
    st.sampled_from([2, 3, 5, 11]),
    st.integers(0, 2**32 - 1),
)
def test_sort_matches_lexsort_reference(shape, n, k, seed):
    with _sort_blocks(k):
        _assert_matches_reference(_rows(shape, n, k, seed), seed)


@pytest.mark.parametrize("tied_block", ["first", "last"])
def test_sort_matches_reference_with_ties_in_one_block(tied_block):
    # tie-free rows except in one block; n is not a multiple of the block
    n, k = 2 * SORT_ROWS + 7, 6
    scores = _rows("tie_free", n, k, seed=3).scores.copy()
    rows = [1, 12] if tied_block == "first" else [n - 6, n - 1]
    scores[rows[0], [1, 3, 4]] = scores[rows[0], 1]
    scores[rows[1], 2:] = 0.0
    scores /= scores.sum(axis=1, keepdims=True)
    m = ScoreMatrix(scores, np.zeros(n, dtype=int), "probabilities")
    with _sort_blocks(k):
        _assert_matches_reference(m, seed=8)


def test_sort_matches_reference_on_signed_zero_runs():
    scores = np.array([[0.0, 0.5, -0.0, 0.5, 0.0, -0.0]] * 5)
    m = ScoreMatrix(scores, np.zeros(5, dtype=int), "probabilities")
    assert not np.signbit(m.scores).any()  # the sort sees runs of 0.0 only
    _assert_matches_reference(m, seed=2)


def test_a_probability_minus_zero_reads_back_as_zero(tmp_path):
    # Every checked probability matrix holds 0.0 where its input held -0.0,
    # so equal values have equal bits; the caller's array and logits keep theirs.
    x = np.array([[0.5, 0.5, -0.0], [1.0, -0.0, 0.0]])
    labels = np.array([0, 1])
    assert not np.signbit(ScoreMatrix(x, labels, "probabilities").scores).any()
    assert np.signbit(x).sum() == 2
    assert np.signbit(ScoreMatrix(x, labels, "logits").scores).sum() == 2
    stored = ScoreMatrix._trusted(x, labels, "probabilities")  # written unchecked
    for name, fmt in (("p.bin", "binary"), ("p.csv", "csv")):
        path = str(tmp_path / name)
        cset.save_scores(stored, path, fmt)
        loaded = cset.load_scores(path)
        assert not np.signbit(loaded.scores).any(), fmt
        np.testing.assert_array_equal(loaded.scores, x)
        blocks = [block.scores for _, block in score_store.open_scores(path).blocks()]
        assert not np.signbit(np.concatenate(blocks)).any(), fmt


def test_order_ties_breaks_equal_keys_by_class_index(monkeypatch):
    # a stable lexsort keeps class order when the keys of a run are equal
    monkeypatch.setattr(score_store, "_tie_keys", lambda seed, rows, k: np.zeros((len(rows), k)))
    scores = np.array([[0.1, 0.3, 0.3, 0.3]])
    perm = score_store._tie_ordered(scores, 0, np.arange(1))
    np.testing.assert_array_equal(perm, [[1, 2, 3, 0]])


def _with_signed_zeros(m, seed):
    """m with about half of its zero cells given as -0.0, which the checked
    matrix stores as 0.0: its sort sees the same bits as m's."""
    x = m.scores.copy()
    x[(x == 0) & (np.random.default_rng(seed).random(x.shape) < 0.5)] = -0.0
    signed = ScoreMatrix(x, m.labels, "probabilities")
    assert not np.signbit(signed.scores).any()
    return signed


def _unbuilt_sorts(shape, n, k, seed, signed, lo):
    """m, its lexsort perm, and two sorts of some of its rows whose perm is
    not built: rows lo: sorted from first_row=lo, and those rows shuffled
    by take. Each sort comes with the rows of m it holds."""
    m = _rows(shape, n, k, seed)
    if signed:
        m = _with_signed_zeros(m, seed)
    perm, _, _ = _lexsort_reference(m, seed)
    part = cset.sort_scores(m.take(np.arange(lo, n)), seed=seed, first_row=lo)
    order = np.random.default_rng(seed).permutation(n - lo)
    return m, perm, [(part, np.arange(lo, n)), (part.take(order), lo + order)]


SORTS = (
    st.sampled_from(ROW_SHAPES),
    st.integers(1, 2 * SORT_ROWS + 9),
    st.sampled_from([2, 5, 11]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)


@given(*SORTS)
def test_counted_label_ranks_match_the_perm_oracle(shape, n, k, seed, signed, data):
    lo = data.draw(st.integers(0, n - 1))
    with _sort_blocks(k):
        m, perm, sorts = _unbuilt_sorts(shape, n, k, seed, signed, lo)
        for ss, rows in sorts:
            ranks = ss.label_ranks(m.labels[rows])  # before perm is built
            want = _whole_matrix_ranks(perm[rows], m.labels[rows])
            assert ranks.dtype == want.dtype
            np.testing.assert_array_equal(ranks, want)
            np.testing.assert_array_equal(ranks, _whole_matrix_ranks(ss.perm, m.labels[rows]))


@given(*SORTS)
def test_top_classes_are_the_perm_prefixes(shape, n, k, seed, signed, data):
    lo = data.draw(st.integers(0, n - 1))
    with _sort_blocks(k):
        _, perm, sorts = _unbuilt_sorts(shape, n, k, seed, signed, lo)
        for ss, rows in sorts:
            sizes = np.random.default_rng(seed).integers(0, k + 1, ss.n)
            got = ss.top_classes(sizes)  # before perm is built
            assert got == [perm[row, :size].tolist() for row, size in zip(rows, sizes)]


@given(
    st.sampled_from(ROW_SHAPES),
    st.integers(2, 2 * SORT_ROWS + 9),
    st.sampled_from([2, 4, 9]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_sort_rows_do_not_depend_on_later_rows(shape, n, k, seed, data):
    m = _rows(shape, n, k, seed)
    j = data.draw(st.integers(1, n - 1))
    with _sort_blocks(k):
        full = cset.sort_scores(m, seed=seed)
        head = cset.sort_scores(m.take(np.arange(j)), seed=seed)
        np.testing.assert_array_equal(full.perm[:j], head.perm)
    assert full.sorted[:j].tobytes() == head.sorted.tobytes()
    assert full.cumsum[:j].tobytes() == head.cumsum.tobytes()


@given(
    st.sampled_from(ROW_SHAPES),
    st.integers(1, 2 * SORT_ROWS + 9),
    st.sampled_from([2, 5, 11]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_sort_of_rows_from_first_row_matches_those_rows_of_the_whole_sort(
    shape, n, k, seed, data
):
    m = _rows(shape, n, k, seed)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    with _sort_blocks(k):
        full = cset.sort_scores(m, seed=seed)
        part = cset.sort_scores(m.take(np.arange(lo, hi)), seed=seed, first_row=lo)
        np.testing.assert_array_equal(part.perm, full.perm[lo:hi])
    assert part.sorted.tobytes() == full.sorted[lo:hi].tobytes()
    assert part.cumsum.tobytes() == full.cumsum[lo:hi].tobytes()


def test_sort_rejects_a_negative_first_row(three_class_row):
    with pytest.raises(ValueError, match="first_row"):
        cset.sort_scores(three_class_row, seed=0, first_row=-1)


# --- softmax and the binary loader against their one-step references ------

@given(logit_matrices(), st.sampled_from([0.05, 0.5, 1.0, 2.5, 20.0]))
def test_softmax_matches_reference_and_leaves_input_alone(m, t):
    before = m.scores.copy()
    z = (m.scores - m.scores.max(axis=1, keepdims=True)) / t
    e = np.exp(z)
    want = e / e.sum(axis=1, keepdims=True)
    p = cset.softmax(m, t)
    assert p.scores.tobytes() == want.tobytes()
    assert p.labels.tobytes() == m.labels.tobytes()
    assert m.scores.tobytes() == before.tobytes()
    assert not m.scores.flags.writeable
    assert not p.scores.flags.writeable


@given(logit_matrices(), st.booleans())
def test_binary_load_matches_float32_reference(tmp_path_factory, m, probabilities):
    if probabilities:
        m = cset.softmax(m)
    path = str(tmp_path_factory.mktemp("bin") / "scores.bin")
    cset.save_scores(m, path, fmt="binary")
    back = cset.load_scores(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(b"CSET1") + 1 + 8 + 8  # magic, kind flag, n, K
    want = np.frombuffer(blob, "<f4", m.n * m.n_classes, head).astype(np.float64)
    if probabilities:
        # rows that float32 rounding moved out of the 1e-6 band are renormalized
        want = ScoreMatrix(want.reshape(m.n, m.n_classes), m.labels, m.kind).scores
    assert back.kind == m.kind
    assert back.scores.dtype == np.float64 and back.labels.dtype == np.int64
    assert back.scores.tobytes() == want.tobytes()
    np.testing.assert_array_equal(back.labels, m.labels)
    assert not back.scores.flags.writeable and not back.labels.flags.writeable


def test_csv_row_numbers_count_data_rows_not_blank_lines(tmp_path):
    # A blank line before the third data row: a parse error and a ScoreMatrix
    # check both name that row by its data index, 2.
    path = tmp_path / "bad.csv"
    for bad, message in (("0.5,x,0.2,2", "row 2 has a malformed value"),
                         ("0.5,nan,0.2,2", "non-finite score in row 2")):
        path.write_text(f"scores,K=3\n0.5,0.3,0.2,0\n0.2,0.3,0.5,1\n\n{bad}\n")
        with pytest.raises(DataError, match=message):
            cset.load_scores(str(path))


def test_sort_scores_refuses_a_negative_seed_on_tie_free_rows():
    # The seed is read only where a tie is ordered; the refusal is not left to then.
    m = ScoreMatrix(np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]), [0, 1], "probabilities")
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        cset.sort_scores(m, seed=-1)


P = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])


@pytest.mark.parametrize("bad", [0.5, 1.9, 1e-9, math.nan])
def test_a_label_that_is_not_a_whole_number_is_a_data_error_naming_its_row(bad):
    labels = np.array([2.0, bad, 0.0])
    with pytest.raises(DataError, match="row 1"):
        ScoreMatrix(P, labels, "probabilities")
    ss = cset.sort_scores(ScoreMatrix(P, [2, 1, 0], "probabilities"), seed=0)
    with pytest.raises(DataError, match="row 1"):
        ss.label_ranks(labels)
    with pytest.raises(DataError, match="row 1"):
        cset.calibrate(ss, labels, cset.MethodSpec("aps", 0.1))
    with pytest.raises(DataError, match="row 1"):
        cset.evaluate_model(cset.naive_model(0.1, 3), ss, labels)


def test_labels_that_are_whole_floats_are_accepted_as_their_integers():
    m = ScoreMatrix(P, np.array([2.0, 1.0, 0.0]), "probabilities")
    assert m.labels.dtype == np.int64
    np.testing.assert_array_equal(m.labels, [2, 1, 0])
    ss = cset.sort_scores(m, seed=0)
    np.testing.assert_array_equal(ss.label_ranks(np.array([2.0, 1.0, 0.0])), ss.label_ranks(m.labels))
