"""Metamorphic checks: relabelling rows or classes must not move a result."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from cset.conformal import MethodSpec, calibrate, set_sizes
from cset.score_store import ScoreMatrix, sort_scores
from cset.tuning import fit_model, fixed_k_star

ALPHAS = st.sampled_from([0.05, 0.1, 0.3, 0.5])


def _rows(rng, n, k, ties):
    """n probability rows of k classes; with ties, few distinct values per row."""
    if ties:
        raw = rng.integers(0, 4, size=(n, k)).astype(float)
        raw[:, 0] += 1
    else:
        raw = rng.random((n, k)) + 0.01
    return raw / raw.sum(axis=1, keepdims=True)


@given(n=st.integers(1, 40), k=st.integers(2, 8), seed=st.integers(0, 2**16),
       alpha=ALPHAS, ties=st.booleans())
def test_permuting_calibration_rows_keeps_deterministic_thresholds(n, k, seed, alpha, ties):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    ss = sort_scores(ScoreMatrix(_rows(rng, n, k, ties), labels, "probabilities"), seed)
    p = rng.permutation(n)
    moved, moved_labels = ss.take(p), labels[p]
    for spec in (MethodSpec("aps", alpha, randomized=False),
                 MethodSpec("raps", alpha, 0.05, 2, randomized=False),
                 MethodSpec("lac", alpha, randomized=False)):
        before = calibrate(ss, labels, spec, seed=3).tau_hat
        assert repr(calibrate(moved, moved_labels, spec, seed=3).tau_hat) == repr(before)
    assert fixed_k_star(moved, moved_labels, alpha) == fixed_k_star(ss, labels, alpha)


@given(n=st.integers(1, 40), k=st.integers(2, 8), seed=st.integers(0, 2**16),
       alpha=ALPHAS, randomized=st.booleans())
def test_permuting_classes_keeps_sizes_and_maps_perm(n, k, seed, alpha, randomized):
    rng = np.random.default_rng(seed)
    probs = _rows(rng, n, k, ties=False)
    assume((np.diff(np.sort(probs, axis=1), axis=1) > 0).all())
    labels = rng.integers(0, k, n)
    q = rng.permutation(k)  # column j of the new matrix holds old class q[j]
    new_index = np.argsort(q)
    ss = sort_scores(ScoreMatrix(probs, labels, "probabilities"), seed)
    ss2 = sort_scores(ScoreMatrix(probs[:, q], new_index[labels], "probabilities"), seed)
    assert np.array_equal(ss2.sorted, ss.sorted)
    assert np.array_equal(ss2.perm, new_index[ss.perm])
    u = rng.random(n)
    for method in ("naive", "aps", "raps", "lac", "fixed_k"):
        penalty = 0.05 if method == "raps" else 0.0
        spec = MethodSpec(method, alpha, penalty, 2 if method == "raps" else 1, randomized)
        a = fit_model(ss, labels, spec, seed=2)
        b = fit_model(ss2, new_index[labels], spec, seed=2)
        assert np.array_equal(set_sizes(b, ss2, u), set_sizes(a, ss, u))


def _sparse_float32_rows(rng, n, k):
    """n probability rows of k classes with many exact zeros, rounded to
    float32 as a binary score file stores them."""
    raw = rng.gamma(0.1, size=(n, k)) * (rng.random((n, k)) < 0.6)
    raw[np.arange(n), rng.integers(0, k, n)] += 1e-3
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32).astype(np.float64)


@given(n_cal=st.integers(1, 40), n_new=st.integers(1, 40), k=st.integers(2, 8),
       seed=st.integers(0, 2**16), alphas=st.lists(ALPHAS, min_size=2, max_size=2, unique=True),
       rows=st.sampled_from(["tie_free", "integer_ties", "sparse_float32"]))
def test_a_larger_alpha_never_gives_a_larger_deterministic_set(
    n_cal, n_new, k, seed, alphas, rows
):
    rng = np.random.default_rng(seed)

    def sorted_split(n):
        if rows == "sparse_float32":
            probs = _sparse_float32_rows(rng, n, k)
        else:
            probs = _rows(rng, n, k, ties=rows == "integer_ties")
        labels = rng.integers(0, k, n)
        return sort_scores(ScoreMatrix(probs, labels, "probabilities"), seed), labels

    cal, labels = sorted_split(n_cal)
    new, _ = sorted_split(n_new)
    small, large = sorted(alphas)
    for method, penalty, kreg, inclusive in (
        ("aps", 0.0, 1, False), ("aps", 0.0, 1, True), ("raps", 0.05, 2, False),
        ("raps", 0.05, 2, True), ("lac", 0.0, 1, False), ("naive", 0.0, 1, False),
    ):
        sizes = [
            set_sizes(fit_model(cal, labels, MethodSpec(method, alpha, penalty, kreg, False,
                                                        inclusive), seed=2), new)
            for alpha in (small, large)
        ]
        assert (sizes[1] <= sizes[0]).all(), (method, inclusive)
