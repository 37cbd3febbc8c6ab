import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cset
from cset.conformal import (
    METHODS,
    ConformalModel,
    MethodSpec,
    as_deterministic,
    calibrate,
    calibration_scores,
    conformal_quantile,
    conformity_score,
    naive_model,
    order_stat_index,
    predict,
    set_size_given_u,
    set_sizes,
    set_sizes_many,
)
from cset.score_store import _BLOCK_CELLS, DataError, ScoreMatrix, sort_scores
from cset.tuning import fit_model

from conftest import dirichlet_matrix


def sorted_row(*probs, label=0):
    m = ScoreMatrix(np.array([list(probs)]), np.array([label]), "probabilities")
    return sort_scores(m, seed=0)


# ---------------------------------------------------------------- scores


def test_raps_score_hand_example():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("raps", 0.1, penalty=0.1, kreg=1)
    got = conformity_score(ss, 0, rank=2, u=1.0, spec=spec)
    assert got == pytest.approx(0.9, abs=1e-9)


def test_raps_score_rank_one():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("raps", 0.1, penalty=0.1, kreg=1)
    got = conformity_score(ss, 0, rank=1, u=1.0, spec=spec)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_aps_score_hand_example():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("aps", 0.1)
    got = conformity_score(ss, 0, rank=2, u=0.5, spec=spec)
    assert got == pytest.approx(0.65, abs=1e-9)


def test_lac_score_hand_example():
    ss = sorted_row(0.7, 0.2, 0.1)
    spec = MethodSpec("lac", 0.1)
    got = conformity_score(ss, 0, rank=2, u=0.5, spec=spec)
    assert got == pytest.approx(0.8, abs=1e-9)


def test_score_rejects_bad_rank():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("aps", 0.1)
    with pytest.raises(ValueError):
        conformity_score(ss, 0, rank=0, u=1.0, spec=spec)
    with pytest.raises(ValueError):
        conformity_score(ss, 0, rank=4, u=1.0, spec=spec)


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("aps", 0.1, penalty=0.5)
    with pytest.raises(ValueError):
        MethodSpec("raps", 0.1, penalty=-0.1)
    with pytest.raises(ValueError):
        MethodSpec("raps", 1.0)
    with pytest.raises(ValueError):
        MethodSpec("raps", 0.1, kreg=0)
    with pytest.raises(ValueError):
        MethodSpec("frequentist", 0.1)


# ---------------------------------------------------------------- quantile


def test_order_stat_hand_example():
    vals = np.array([0.2, 0.5, 0.7, 0.9])
    assert order_stat_index(4, 0.5) == 3
    assert conformal_quantile(vals, 0.5) == pytest.approx(0.7, abs=1e-9)


def test_quantile_overflows_to_inf():
    vals = np.array([0.2, 0.5, 0.7, 0.9])
    assert conformal_quantile(vals, 0.1) == math.inf


def test_order_stat_index_is_exact_not_float():
    # (9+1)*(1-0.1) = 9 exactly; float rounding of 1-0.1 pushes it past 9
    assert order_stat_index(9, 0.1) == 9
    # and the binary double for 0.3 sits below 3/10, which would push it to 8
    assert order_stat_index(9, 0.3) == 7
    assert order_stat_index(99, 0.1) == 90
    assert order_stat_index(999, 0.001) == 999


@given(st.integers(1, 300), st.floats(0.01, 0.99))
def test_order_stat_index_matches_fraction_oracle(n, alpha):
    from fractions import Fraction

    alpha = round(alpha, 6)
    exact = math.ceil(Fraction(n + 1) * (1 - Fraction(str(alpha))))
    assert order_stat_index(n, alpha) == exact


def test_calibrate_end_to_end_hand_example():
    # four rows whose deterministic aps scores come out (0.5, 0.8, 1.0, 0.5)
    scores = np.array(
        [
            [0.5, 0.3, 0.2],
            [0.5, 0.3, 0.2],
            [0.5, 0.3, 0.2],
            [0.5, 0.3, 0.2],
        ]
    )
    labels = np.array([0, 1, 2, 0])
    m = ScoreMatrix(scores, labels, "probabilities")
    ss = sort_scores(m, seed=0)
    spec = MethodSpec("aps", 0.5, randomized=False)
    model = calibrate(ss, labels, spec, seed=0)
    assert model.tau_hat == pytest.approx(0.8, abs=1e-9)
    assert model.n_cal == 4


def test_calibrate_quantile_from_constructed_scores():
    # scores (0.2, 0.5, 0.7, 0.9) at alpha=0.5 -> third smallest
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("aps", 0.5, randomized=False)
    e = np.array([0.2, 0.5, 0.7, 0.9])
    assert conformal_quantile(e, spec.alpha) == pytest.approx(0.7, abs=1e-9)


def test_small_calibration_set_gives_inf():
    m = dirichlet_matrix(4, 3, seed=0)
    ss = sort_scores(m, seed=0)
    model = calibrate(ss, m.labels, MethodSpec("aps", 0.1), seed=0)
    assert model.tau_hat == math.inf
    sizes = set_sizes(model, ss, u=np.zeros(4))
    assert (sizes == 3).all()


# ---------------------------------------------------------------- sets


def test_prefix_sizes_hand_examples():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("aps", 0.1)
    model = ConformalModel(spec, tau_hat=0.85, n_cal=10, seed=0, n_classes=3)
    assert set_sizes(model, ss, u=np.array([1.0]))[0] == 2
    assert set_sizes(model, ss, u=np.array([0.0]))[0] == 3


def test_heavy_regularization_truncates():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("raps", 0.1, penalty=1.0, kreg=1)
    model = ConformalModel(spec, tau_hat=1.2, n_cal=10, seed=0, n_classes=3)
    assert set_sizes(model, ss, u=np.array([1.0]))[0] == 1


def test_naive_deterministic_hand_example():
    ss = sorted_row(0.6, 0.3, 0.1)
    model = naive_model(alpha=0.05, n_classes=3, randomized=False)
    assert set_sizes(model, ss)[0] == 3


def test_naive_randomized_drop():
    # cumulative (0.5, 0.8, 1.0), target 0.8: L=2, V=(0.8-0.8)/0.3=0 -> drop iff u <= 0
    ss = sorted_row(0.5, 0.3, 0.2)
    model = naive_model(alpha=0.2, n_classes=3, randomized=True)
    assert set_sizes(model, ss, u=np.array([0.0]))[0] == 1
    assert set_sizes(model, ss, u=np.array([0.5]))[0] == 2


def test_predict_returns_classes_in_rank_order():
    # class indices 2,1,0 after sorting (0.2, 0.3, 0.5)
    m = ScoreMatrix(np.array([[0.2, 0.3, 0.5]]), np.array([0]), "probabilities")
    ss = sort_scores(m, seed=0)
    spec = MethodSpec("aps", 0.1)
    model = ConformalModel(spec, tau_hat=0.85, n_cal=10, seed=0, n_classes=3)
    got = predict(model, ss, 0, u=1.0)
    assert list(got.classes) == [2, 1]
    assert got.size == 2


def test_predict_requires_u_when_randomized():
    ss = sorted_row(0.5, 0.3, 0.2)
    model = ConformalModel(MethodSpec("aps", 0.1), 0.85, 10, 0, 3)
    with pytest.raises(ValueError):
        predict(model, ss, 0)
    with pytest.raises(ValueError):
        predict(model, ss, 0, u=1.5)


def test_inf_threshold_predicts_everything():
    ss = sorted_row(0.5, 0.3, 0.2)
    model = ConformalModel(MethodSpec("aps", 0.1), math.inf, 10, 0, 3)
    assert predict(model, ss, 0, u=0.7).size == 3


def test_class_count_mismatch_rejected():
    ss = sorted_row(0.5, 0.3, 0.2)
    model = ConformalModel(MethodSpec("aps", 0.1), 0.85, 10, 0, n_classes=5)
    with pytest.raises(DataError):
        set_sizes(model, ss, u=np.array([1.0]))


def test_set_size_given_u_hand_examples():
    ss = sorted_row(0.5, 0.3, 0.2)
    spec = MethodSpec("aps", 0.1)
    model = ConformalModel(spec, tau_hat=0.85, n_cal=10, seed=0, n_classes=3)
    s0, s1, v = set_size_given_u(model, ss, 0)
    assert (s0, s1) == (3, 2)
    assert v == pytest.approx(0.25, abs=1e-9)

    low = ConformalModel(spec, tau_hat=0.3, n_cal=10, seed=0, n_classes=3)
    s0, s1, v = set_size_given_u(low, ss, 0)
    assert (s0, s1) == (1, 0)
    assert v == pytest.approx(0.6, abs=1e-9)


def test_set_size_given_u_expected_size_identity():
    # E[size] over u must match v*size_u0 + (1-v)*size_u1 empirically
    m = dirichlet_matrix(30, 6, seed=3)
    ss = sort_scores(m, seed=0)
    model = calibrate(ss, m.labels, MethodSpec("aps", 0.3), seed=1)
    grid = np.linspace(0.0005, 0.9995, 2001)
    for row in range(5):
        s0, s1, v = set_size_given_u(model, ss, row)
        sizes = [set_sizes(model, ss.take(np.array([row])), u=np.array([u]))[0] for u in grid]
        expect = v * s0 + (1 - v) * s1
        assert np.mean(sizes) == pytest.approx(expect, abs=2e-3)


def test_boundary_inclusive_is_superset():
    m = dirichlet_matrix(40, 5, seed=4)
    ss = sort_scores(m, seed=0)
    spec = MethodSpec("raps", 0.2, penalty=0.05, kreg=2, randomized=False)
    base = calibrate(ss, m.labels, spec, seed=0)
    wide = ConformalModel(
        MethodSpec("raps", 0.2, penalty=0.05, kreg=2, randomized=False, boundary_inclusive=True),
        base.tau_hat, base.n_cal, base.seed, base.n_classes,
    )
    a = set_sizes(base, ss)
    b = set_sizes(wide, ss)
    assert (b >= a).all()
    assert (b <= 5).all()


# ---------------------------------------------------------------- properties


@st.composite
def random_sorted_rows(draw):
    k = draw(st.integers(2, 12))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k).filter(
            lambda xs: sum(xs) > 1e-5
        )
    )
    probs = np.array(sorted(raw, reverse=True))
    probs = probs / probs.sum()
    return sorted_row(*probs)


@given(
    random_sorted_rows(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.integers(1, 5),
)
def test_score_nondecreasing_in_rank(ss, u, lam, kreg):
    spec = MethodSpec("raps", 0.1, penalty=lam, kreg=kreg)
    k = ss.n_classes
    scores = [conformity_score(ss, 0, r, u, spec) for r in range(1, k + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


@given(
    random_sorted_rows(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_nesting_in_tau(ss, u, tau1, tau2):
    lo, hi = sorted((tau1, tau2))
    spec = MethodSpec("aps", 0.1)
    a = set_sizes(ConformalModel(spec, lo, 10, 0, ss.n_classes), ss, u=np.array([u]))
    b = set_sizes(ConformalModel(spec, hi, 10, 0, ss.n_classes), ss, u=np.array([u]))
    assert a[0] <= b[0]


@given(random_sorted_rows(), st.floats(0.0, 1.5))
def test_randomization_gap_at_most_one(ss, tau):
    spec = MethodSpec("aps", 0.1)
    model = ConformalModel(spec, tau, 10, 0, ss.n_classes)
    s0 = set_sizes(model, ss, u=np.array([0.0]))[0]
    s1 = set_sizes(model, ss, u=np.array([1.0]))[0]
    assert s0 - s1 in (0, 1)


def test_aps_equals_raps_zero_penalty():
    m = dirichlet_matrix(1000, 10, seed=5)
    ss = sort_scores(m, seed=2)
    u = np.random.default_rng(3).random(1000)
    aps = calibrate(ss, m.labels, MethodSpec("aps", 0.1), seed=9)
    raps = calibrate(ss, m.labels, MethodSpec("raps", 0.1, penalty=0.0, kreg=1), seed=9)
    assert aps.tau_hat == raps.tau_hat
    np.testing.assert_array_equal(set_sizes(aps, ss, u=u), set_sizes(raps, ss, u=u))


def test_calibration_scores_match_conformity_score():
    m = dirichlet_matrix(25, 6, seed=6)
    ss = sort_scores(m, seed=0)
    spec = MethodSpec("raps", 0.1, penalty=0.2, kreg=2)
    u = np.random.default_rng(1).random(25)
    got = calibration_scores(ss, m.labels, spec, u)
    ranks = ss.label_ranks(m.labels)
    want = [
        conformity_score(ss, i, int(ranks[i]), float(u[i]), spec)
        for i in range(25)
    ]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_deterministic_mode_is_conservative():
    # deterministic u=1 calibration/prediction keeps coverage at or above target
    spec = cset.SynthSpec(n=4000, n_classes=20, seed=11)
    _, m = cset.generate(spec)
    ss = sort_scores(m, seed=0)
    idx = np.arange(4000)
    cal, ev = idx[:1500], idx[1500:]
    mspec = MethodSpec("aps", 0.1, randomized=False)
    model = calibrate(ss.take(cal), m.labels[cal], mspec, seed=0)
    sizes = set_sizes(model, ss.take(ev))
    covered = ss.take(ev).label_ranks(m.labels[ev]) <= sizes
    se = math.sqrt(0.1 * 0.9 / len(ev))
    assert covered.mean() >= 0.9 - 3 * se


# ---------------------------------------------------------------- persistence


def test_model_round_trip(tmp_path):
    m = dirichlet_matrix(50, 8, seed=7)
    ss = sort_scores(m, seed=0)
    model = calibrate(ss, m.labels, MethodSpec("raps", 0.1, penalty=0.01, kreg=3), seed=4)
    path = str(tmp_path / "model.txt")
    cset.save_model(model, path)
    back = cset.load_model(path)
    assert back == model


def test_model_round_trip_inf_tau(tmp_path):
    model = ConformalModel(MethodSpec("aps", 0.1), math.inf, 4, 0, 7)
    path = str(tmp_path / "model.txt")
    cset.save_model(model, path)
    assert cset.load_model(path).tau_hat == math.inf


def test_model_round_trip_fixed_k(tmp_path):
    model = ConformalModel(
        MethodSpec("fixed_k", 0.1), math.inf, 20, 3, 9, k_star=2, mix_prob=0.5
    )
    path = str(tmp_path / "model.txt")
    cset.save_model(model, path)
    back = cset.load_model(path)
    assert back.k_star == 2 and back.mix_prob == 0.5


def test_model_file_errors(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("method = aps\nalpha = 0.1\n")
    with pytest.raises(DataError):
        cset.load_model(str(path))
    path.write_text("method = aps\nalpha = banana\ntau_hat = 0.5\nn_cal = 10\nseed = 0\nn_classes = 3\nlambda = 0\nk_reg = 1\nrandomized = true\nboundary_inclusive = false\n")
    with pytest.raises(DataError):
        cset.load_model(str(path))


def _model_text(**overrides):
    fields = {
        "method": "aps", "alpha": "0.1", "lambda": "0.0", "k_reg": "1",
        "randomized": "true", "boundary_inclusive": "false", "tau_hat": "0.5",
        "n_cal": "10", "seed": "0", "n_classes": "3",
    }
    fields.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in fields.items() if v is not None)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau_hat", "nan"),
        ("tau_hat", "-inf"),
        ("n_cal", "-5"),
        ("randomized", "yes"),
        ("boundary_inclusive", "yes"),
    ],
)
def test_model_file_rejects_bad_values(tmp_path, field, value):
    path = tmp_path / "model.txt"
    path.write_text(_model_text(**{field: value}))
    with pytest.raises(DataError, match=field):
        cset.load_model(str(path))


@pytest.mark.parametrize("spec", [MethodSpec("lac", 0.1), MethodSpec("aps", 0.1, randomized=False)])
def test_calibrate_refuses_a_negative_seed(spec):
    m = dirichlet_matrix(20, 4, seed=1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        calibrate(sort_scores(m, seed=0), m.labels, spec, seed=-3)


def test_model_file_refuses_a_negative_seed(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(_model_text(seed="-7"))
    with pytest.raises(DataError, match="seed"):
        cset.load_model(str(path))


def test_model_file_boundary_inclusive_defaults_false(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(_model_text(boundary_inclusive=None))
    assert cset.load_model(str(path)).spec.boundary_inclusive is False
    path.write_text(_model_text(boundary_inclusive="true", tau_hat="inf"))
    model = cset.load_model(str(path))
    assert model.spec.boundary_inclusive is True and model.tau_hat == math.inf


def test_as_deterministic_flips_flag():
    model = ConformalModel(MethodSpec("aps", 0.1), 0.8, 10, 0, 3)
    det = as_deterministic(model)
    assert det.spec.randomized is False
    assert det.tau_hat == model.tau_hat


# --------------------------------------------- set_sizes_many vs the old formula


def _old_set_sizes(model, ss, u):
    """set_sizes as one whole-matrix formula per model: rho + u*s + penalty."""
    spec, k = model.spec, ss.n_classes
    u = np.asarray(u, dtype=np.float64) if spec.randomized else 1.0
    if spec.method == "fixed_k":
        sizes = np.where(np.asarray(u) <= model.mix_prob, model.k_star - 1, model.k_star)
        return np.broadcast_to(sizes, (ss.n,)).astype(np.int64)
    if spec.method == "naive":
        target = 1.0 - spec.alpha
        first = np.minimum((ss.cumsum < target).sum(axis=1), k - 1)
        rows = np.arange(ss.n)
        sizes = first + 1
        if spec.randomized:
            s_last = ss.sorted[rows, first]
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(s_last > 0, (ss.cumsum[rows, first] - target) / s_last, 0.0)
            sizes = sizes - (u <= v).astype(np.int64)
        return sizes.astype(np.int64)
    if spec.method == "lac":
        scores = 1.0 - ss.sorted
    else:
        rho = np.empty_like(ss.cumsum)
        rho[:, 0] = 0.0
        rho[:, 1:] = ss.cumsum[:, :-1]
        if spec.penalty == 0.0:
            pen = np.zeros(k)
        else:
            pen = spec.penalty * np.maximum(np.arange(1, k + 1) - spec.kreg, 0)
        u = u[:, None] if np.ndim(u) == 1 else u
        scores = rho + u * ss.sorted + pen
    sizes = (scores <= model.tau_hat).sum(axis=1).astype(np.int64)
    if spec.boundary_inclusive and not spec.randomized and spec.method in ("aps", "raps"):
        sizes = np.minimum(sizes + 1, k)
    return sizes


SIZE_ROW_SHAPES = ("tie_free", "sparse_signed_zero", "integer_ties")


def _size_rows(shape, n, k, seed):
    g = np.random.default_rng(seed)
    if shape == "tie_free":
        x = g.random((n, k)) + 0.01
    elif shape == "integer_ties":
        x = g.integers(1, 4, (n, k)).astype(float)
    else:
        x = g.random((n, k))
        x[g.random((n, k)) < 0.7] = 0.0
        x[np.arange(n), g.integers(0, k, n)] += 1.0
    x /= x.sum(axis=1, keepdims=True)
    if shape == "sparse_signed_zero":
        x[(x == 0.0) & (g.random((n, k)) < 0.5)] = -0.0
    m = ScoreMatrix(x, g.integers(0, k, n), "probabilities")
    assert not np.signbit(m.scores).any()  # sparse_signed_zero's -0.0 is stored as 0.0
    ss = sort_scores(m, seed)
    u = g.random(n)
    u[g.random(n) < 0.05] = 0.0
    u[g.random(n) < 0.05] = 1.0
    return ss, u


def _sweep_models(k, seed):
    """aps, lac and a (kreg, lambda) grid calibrated on one split, as the
    experiment's sweep is: the lambda = 0 cells and the kregs no label passes
    calibrate to the aps threshold, so the sizer counts once for them. Each
    one randomized, deterministic and boundary-inclusive."""
    cal = dirichlet_matrix(400, k, seed=seed)
    ss = sort_scores(cal, seed=1)
    specs = [MethodSpec("aps", 0.1), MethodSpec("lac", 0.1)]
    specs += [MethodSpec("raps", 0.1, penalty=lam, kreg=kreg)
              for kreg in (1, 2, 5, k) for lam in (0.0, 0.01, 0.1, 1.0)]
    models = []
    for spec in specs:
        for variant in ({}, {"randomized": False},
                        {"randomized": False, "boundary_inclusive": True}):
            if spec.method == "lac" and variant.get("boundary_inclusive"):
                continue
            models.append(calibrate(ss, cal.labels, dataclasses.replace(spec, **variant), seed=2))
    assert len({model.tau_hat for model in models}) < len(models)  # some thresholds are shared
    return models


@st.composite
def size_cases(draw):
    """Rows spanning up to three blocks (K never divides the block), a
    shared u, and a mixed list of models with thresholds that include an
    empty set, +inf, and exact score values (equality at the threshold)."""
    k = draw(st.sampled_from([3, 7, 100, 257]))
    rows = _BLOCK_CELLS // k
    n = draw(st.one_of(
        st.integers(1, 3 * rows + 7),
        st.builds(lambda j, d: max(1, j * rows + d), st.integers(1, 3), st.integers(-2, 2)),
    ))
    ss, u = _size_rows(draw(st.sampled_from(SIZE_ROW_SHAPES)), n, k,
                       draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(draw(st.integers(1, 8))):
        method = draw(st.sampled_from(("naive", "fixed_k", "lac", "aps", "raps")))
        randomized = draw(st.booleans())
        alpha = draw(st.sampled_from([0.05, 0.1, 0.3]))
        if method == "naive":
            models.append(naive_model(alpha, k, randomized))
            continue
        if method == "fixed_k":
            spec = MethodSpec("fixed_k", alpha, randomized=randomized)
            k_star = draw(st.integers(1, k))
            models.append(ConformalModel(spec, math.inf, 10, 0, k,
                                         k_star=k_star, mix_prob=draw(st.floats(0.0, 1.0))))
            continue
        penalty = draw(st.sampled_from([0.0, 1e-3, 0.3, 2.0])) if method == "raps" else 0.0
        spec = MethodSpec(method, alpha, penalty=penalty, kreg=draw(st.integers(1, 6)),
                          randomized=randomized, boundary_inclusive=draw(st.booleans()))
        tau_kind = draw(st.sampled_from(("float", "empty", "inf", "at_score")))
        if tau_kind == "float":
            tau = draw(st.floats(0.0, 2.5))
        elif tau_kind == "empty":
            tau = -1e300
        elif tau_kind == "inf":
            tau = math.inf
        else:
            probe = ConformalModel(spec, 0.0, 10, 0, k)
            row = draw(st.integers(0, n - 1))
            rank = draw(st.integers(1, k))
            u_row = u[row] if randomized else 1.0
            tau = conformity_score(ss, row, rank, u_row, probe.spec)
        models.append(ConformalModel(spec, tau, 10, 0, k))
    return ss, u, models


@given(size_cases())
def test_set_sizes_many_matches_per_model_formula(case):
    ss, u, models = case
    got = set_sizes_many(models, ss, u)
    assert len(got) == len(models)
    for model, sizes in zip(models, got):
        want = _old_set_sizes(model, ss, u)
        assert sizes.dtype == np.int64
        np.testing.assert_array_equal(sizes, want, err_msg=repr(model.spec))
        np.testing.assert_array_equal(set_sizes(model, ss, u), want)


def test_set_sizes_many_penalty_starts_past_kreg():
    # a penalty so large that one penalized rank prices a class out: the set
    # is exactly the first kreg ranks whatever the threshold below 1
    ss, u = _size_rows("tie_free", 2 * (_BLOCK_CELLS // 5) + 3, 5, 4)
    for kreg in (1, 2, 4):
        spec = MethodSpec("raps", 0.1, penalty=10.0, kreg=kreg, randomized=False)
        model = ConformalModel(spec, 1.0 + 1e-9, 10, 0, 5)
        (sizes,) = set_sizes_many([model], ss, u)
        np.testing.assert_array_equal(sizes, np.full(ss.n, kreg))


def test_set_sizes_many_checks_every_model():
    ss, u = _size_rows("tie_free", 10, 4, 0)
    good = ConformalModel(MethodSpec("aps", 0.1), 0.5, 10, 0, 4)
    wrong_k = ConformalModel(MethodSpec("aps", 0.1), 0.5, 10, 0, 5)
    with pytest.raises(DataError):
        set_sizes_many([good, wrong_k], ss, u)
    with pytest.raises(ValueError, match="one u per row"):
        set_sizes_many([as_deterministic(good), good], ss)
    with pytest.raises(ValueError, match="shape"):
        set_sizes_many([good], ss, u[:-1])
    # deterministic models never look at u
    (sizes,) = set_sizes_many([as_deterministic(good)], ss)
    np.testing.assert_array_equal(sizes, _old_set_sizes(as_deterministic(good), ss, None))
    assert set_sizes_many([], ss, u) == []


@pytest.mark.parametrize("extra, message", [
    ("temperature = 1.5\n", "unknown model field 'temperature'"),
    ("tau_hat = 0.9\n", "repeated model field 'tau_hat'"),
], ids=["unknown", "repeated"])
def test_model_file_refuses_unknown_and_repeated_keys(tmp_path, extra, message):
    path = tmp_path / "model.txt"
    path.write_text(_model_text() + extra)
    with pytest.raises(DataError, match=message):
        cset.load_model(str(path))


@pytest.mark.parametrize("method", METHODS)
def test_every_saved_model_loads_back(tmp_path, method):
    path = str(tmp_path / "model.txt")
    for n in (40, 5):  # 5 rows are too few for alpha = 0.1: tau_hat is inf
        m = dirichlet_matrix(n, 6, seed=3)
        ss = sort_scores(m, seed=0)
        for randomized in (True, False):
            for inclusive in (True, False):
                spec = MethodSpec(method, 0.1, penalty=0.05 if method == "raps" else 0.0,
                                  kreg=2, randomized=randomized, boundary_inclusive=inclusive)
                model = fit_model(ss, m.labels, spec, seed=4)
                cset.save_model(model, path)
                assert cset.load_model(path) == model


# ------------------------------------------- one rule per score and threshold


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
@pytest.mark.parametrize("randomized", [True, False], ids=["randomized", "deterministic"])
@pytest.mark.parametrize("spec_args", [
    ("aps", 0.0, 1), ("raps", 0.3, 2), ("raps", 0.0, 1), ("lac", 0.0, 1),
], ids=["aps", "raps", "raps_no_penalty", "lac"])
def test_calibration_scores_equal_conformity_score_bit_for_bit(shape, randomized, spec_args):
    method, penalty, kreg = spec_args
    ss, u = _size_rows(shape, 60, 7, seed=12)
    labels = ss.perm[np.arange(ss.n), np.random.default_rng(5).integers(0, 7, ss.n)]
    spec = MethodSpec(method, 0.1, penalty=penalty, kreg=kreg, randomized=randomized)
    u_rows = u if randomized and method != "lac" else np.ones(ss.n)
    got = calibration_scores(ss, labels, spec, u_rows)
    ranks = ss.label_ranks(labels)
    want = [conformity_score(ss, i, int(ranks[i]), float(u_rows[i]), spec) for i in range(ss.n)]
    np.testing.assert_array_equal(got, want)
    if not randomized:
        # a threshold at row i's own score keeps row i's label in its set
        for i in range(ss.n):
            model = ConformalModel(spec, float(got[i]), ss.n, 0, 7)
            assert set_sizes(model, ss.take(np.array([i])))[0] >= ranks[i]


def test_thresholds_never_grow_with_alpha():
    m = dirichlet_matrix(400, 12, seed=21)
    ss = sort_scores(m, seed=0)
    alphas = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8)
    for method, penalty in (("aps", 0.0), ("raps", 0.05), ("lac", 0.0)):
        for randomized in (True, False):
            specs = [MethodSpec(method, a, penalty=penalty, kreg=2, randomized=randomized)
                     for a in alphas]
            taus = [calibrate(ss, m.labels, spec, seed=3).tau_hat for spec in specs]
            assert all(b <= a for a, b in zip(taus, taus[1:])), (method, randomized, taus)
    ks = [cset.fixed_k_star(ss, m.labels, a) for a in alphas]
    assert all(b <= a for a, b in zip(ks, ks[1:])), ks


MODEL_FILES = {
    "naive": (naive_model(0.1, 5),
              "method = naive\nalpha = 0.1\nlambda = 0.0\nk_reg = 1\nrandomized = true\n"
              "boundary_inclusive = false\ntau_hat = 0.9\nn_cal = 0\nseed = 0\nn_classes = 5\n"),
    "aps": (ConformalModel(MethodSpec("aps", 0.05, randomized=False, boundary_inclusive=True),
                           math.inf, 4, 7, 3),
            "method = aps\nalpha = 0.05\nlambda = 0.0\nk_reg = 1\nrandomized = false\n"
            "boundary_inclusive = true\ntau_hat = inf\nn_cal = 4\nseed = 7\nn_classes = 3\n"),
    "raps": (ConformalModel(MethodSpec("raps", 0.1, penalty=0.01, kreg=3), 1.0123456789012346,
                            500, 11, 100),
             "method = raps\nalpha = 0.1\nlambda = 0.01\nk_reg = 3\nrandomized = true\n"
             "boundary_inclusive = false\ntau_hat = 1.0123456789012346\nn_cal = 500\n"
             "seed = 11\nn_classes = 100\n"),
    "lac": (ConformalModel(MethodSpec("lac", 0.2, randomized=False), 0.1 + 0.2, 30, 0, 4),
            "method = lac\nalpha = 0.2\nlambda = 0.0\nk_reg = 1\nrandomized = false\n"
            "boundary_inclusive = false\ntau_hat = 0.30000000000000004\nn_cal = 30\nseed = 0\n"
            "n_classes = 4\n"),
    "fixed_k": (ConformalModel(MethodSpec("fixed_k", 0.1), math.inf, 20, 3, 9,
                               k_star=2, mix_prob=0.25),
                "method = fixed_k\nalpha = 0.1\nlambda = 0.0\nk_reg = 1\nrandomized = true\n"
                "boundary_inclusive = false\ntau_hat = inf\nn_cal = 20\nseed = 3\n"
                "n_classes = 9\nk_star = 2\nmix_prob = 0.25\n"),
}


@pytest.mark.parametrize("method", METHODS)
def test_model_file_bytes(tmp_path, method):
    model, text = MODEL_FILES[method]
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    assert path.read_bytes() == text.encode()
    assert cset.load_model(str(path)) == model


def test_naive_sets_are_sized_at_its_tau_hat():
    ss, u = _size_rows("tie_free", 200, 8, seed=4)
    for randomized in (True, False):
        at_half = naive_model(0.5, 8, randomized)
        hand = ConformalModel(MethodSpec("naive", 0.1, randomized=randomized), 0.5, 0, 0, 8)
        np.testing.assert_array_equal(set_sizes(hand, ss, u), set_sizes(at_half, ss, u))
        assert not np.array_equal(set_sizes(hand, ss, u),
                                  set_sizes(naive_model(0.1, 8, randomized), ss, u))
        for row in range(20):
            assert set_size_given_u(hand, ss, row) == set_size_given_u(at_half, ss, row)


@pytest.mark.parametrize("method", ["naive", "aps", "raps", "lac"])
def test_k_star_and_mix_prob_belong_to_fixed_k(tmp_path, method):
    spec = MethodSpec(method, 0.1)
    for extra in ({"k_star": 2}, {"mix_prob": 0.5}, {"k_star": 2, "mix_prob": 0.5}):
        with pytest.raises(ValueError, match="fixed_k only"):
            ConformalModel(spec, 0.5, 10, 0, 3, **extra)
    path = tmp_path / "model.txt"
    path.write_text(_model_text(method=method) + "k_star = 2\nmix_prob = 0.5\n")
    with pytest.raises(DataError, match="fixed_k only"):
        cset.load_model(str(path))


def test_model_file_writes_numpy_scalars_as_plain_numbers(tmp_path):
    spec = MethodSpec("fixed_k", 0.1)
    model = ConformalModel(spec, np.float64(0.5), np.int64(20), 3, 9, k_star=np.int64(2),
                           mix_prob=np.float64(0.25))
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    assert "tau_hat = 0.5\n" in path.read_text() and "mix_prob = 0.25\n" in path.read_text()
    assert cset.load_model(str(path)) == model


MIXED_SPECS = (
    MethodSpec("lac", 0.1),
    MethodSpec("naive", 0.1),
    MethodSpec("naive", 0.1, randomized=False),
    MethodSpec("fixed_k", 0.1),
    MethodSpec("fixed_k", 0.1, randomized=False),
    MethodSpec("aps", 0.1),
    MethodSpec("raps", 0.1),
    MethodSpec("raps", 0.1, penalty=0.05, kreg=2),
    MethodSpec("raps", 0.1, randomized=False),
    MethodSpec("raps", 0.1, penalty=0.3, kreg=3, randomized=False),
    MethodSpec("raps", 0.1, penalty=0.05, kreg=2, randomized=False, boundary_inclusive=True),
    MethodSpec("aps", 0.1, randomized=False, boundary_inclusive=True),
)


@st.composite
def mixed_size_cases(draw):
    """Every kind of model at once, in a drawn order, over rows that span
    block edges, so each group's score base meets the others' in one pass."""
    k = draw(st.sampled_from([3, 7, 100]))
    rows = _BLOCK_CELLS // k
    n = draw(st.integers(1, 2 * rows + 5))
    ss, u = _size_rows(draw(st.sampled_from(SIZE_ROW_SHAPES)), n, k,
                       draw(st.integers(0, 2**32 - 1)))
    models = []
    for spec in MIXED_SPECS:
        if spec.method == "naive":
            models.append(naive_model(draw(st.sampled_from([0.05, 0.2, 0.5])), k, spec.randomized))
        elif spec.method == "fixed_k":
            models.append(ConformalModel(spec, math.inf, 10, 0, k, k_star=draw(st.integers(1, k)),
                                         mix_prob=draw(st.floats(0.0, 1.0))))
        else:
            models.append(ConformalModel(spec, draw(st.floats(0.0, 1.6)), 10, 0, k))
    return ss, u, draw(st.permutations(models))


@given(mixed_size_cases())
def test_set_sizes_many_over_a_mixed_list_matches_each_model_alone(case):
    ss, u, models = case
    for model, sizes in zip(models, set_sizes_many(models, ss, u)):
        np.testing.assert_array_equal(sizes, set_sizes(model, ss, u), err_msg=repr(model.spec))


def test_naive_set_size_given_u_has_its_extremes_the_right_way_round(three_class_sorted):
    # naive drops its boundary class when u <= v: size 1 at u = 0, 2 at u = 1
    model = naive_model(0.3, 3)
    s0, s1, v = set_size_given_u(model, three_class_sorted, 0)
    assert (s0, s1) == (1, 2)
    assert v == pytest.approx(1 / 3, abs=1e-9)
    for u, size in ((0.0, 1), (0.2, 1), (0.5, 2), (1.0, 2)):
        assert set_sizes(model, three_class_sorted, np.array([u]))[0] == size


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
def test_naive_set_size_given_u_agrees_with_set_sizes(alpha):
    m = dirichlet_matrix(30, 6, seed=8)
    ss = sort_scores(m, seed=0)
    model = naive_model(alpha, 6)
    grid = np.linspace(0.0005, 0.9995, 2001)
    for row in range(12):
        one = ss.take(np.array([row]))
        s0, s1, v = set_size_given_u(model, ss, row)
        assert s0 == set_sizes(model, one, np.array([0.0]))[0]
        assert s1 == set_sizes(model, one, np.array([1.0]))[0]
        sizes = set_sizes(model, one.take(np.zeros(grid.size, dtype=int)), grid)
        assert np.mean(sizes) == pytest.approx(v * s0 + (1 - v) * s1, abs=2e-3)


# ------------------------------------- set_sizes_many cuts the unreachable ranks


def _whole_row_count(model, ss, u):
    """aps/raps/lac sizes counted over every column of the whole matrix."""
    spec, k = model.spec, ss.n_classes
    if spec.method == "lac":
        scores = 1.0 - ss.sorted
    else:
        scores = (u[:, None] if spec.randomized else 1.0) * ss.sorted
        scores[:, 1:] += ss.cumsum[:, :-1]
        scores += spec.penalty * np.maximum(np.arange(1, k + 1) - spec.kreg, 0)
    sizes = (scores <= model.tau_hat).sum(axis=1)
    if spec.boundary_inclusive and not spec.randomized and spec.method != "lac":
        sizes = np.minimum(sizes + 1, k)
    return sizes


def _block_bound(spec, ss, lo, hi, j):
    """The lowest score any row of rows lo:hi can have at 0-based column j."""
    if spec.method == "lac":
        return 1.0 - ss.sorted[lo:hi, j].max()
    low = 0.0 if j == 0 else ss.cumsum[lo:hi, j - 1].min()
    return low + spec.penalty * max(j + 1 - spec.kreg, 0)


@st.composite
def cut_cases(draw):
    """aps/raps/lac models whose thresholds sit on, or one ulp either side
    of, some block's lower bound at some column, over rows that often span
    three or four blocks."""
    k = draw(st.sampled_from([7, 100, 257]))
    rows = _BLOCK_CELLS // k
    n = draw(st.one_of(st.integers(2 * rows + 1, 3 * rows + 7), st.integers(1, rows)))
    ss, u = _size_rows(draw(st.sampled_from(SIZE_ROW_SHAPES)), n, k,
                       draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(draw(st.integers(1, 4))):
        method = draw(st.sampled_from(("aps", "raps", "lac")))
        penalty = draw(st.sampled_from([0.0, 1e-3, 0.3, 1e6])) if method == "raps" else 0.0
        randomized = draw(st.booleans())
        spec = MethodSpec(method, 0.1, penalty=penalty, kreg=draw(st.integers(1, 4)),
                          randomized=randomized,
                          boundary_inclusive=draw(st.booleans()) and not randomized)
        where = draw(st.sampled_from(("bound", "inf", "below_zero")))
        if where == "bound":
            lo = rows * draw(st.integers(0, (n - 1) // rows))
            tau = _block_bound(spec, ss, lo, min(lo + rows, n), draw(st.integers(0, k - 1)))
            tau = float(np.nextafter(tau, draw(st.sampled_from([-math.inf, tau, math.inf]))))
        else:
            tau = math.inf if where == "inf" else -5e-324
        models.append(ConformalModel(spec, tau, 10, 0, k))
    return ss, u, models


@given(cut_cases())
def test_set_sizes_many_cut_matches_a_whole_matrix_count(case):
    ss, u, models = case
    for model, sizes in zip(models, set_sizes_many(models, ss, u)):
        np.testing.assert_array_equal(sizes, _whole_row_count(model, ss, u),
                                      err_msg=f"{model.spec!r} tau={model.tau_hat!r}")


def test_set_sizes_many_cut_edges():
    # sparse rows with signed zeros over three blocks of K = 100
    ss, u = _size_rows("sparse_signed_zero", 3 * (_BLOCK_CELLS // 100) + 5, 100, 11)
    lac_all = ConformalModel(MethodSpec("lac", 0.1), math.inf, 10, 0, 100)
    # the rank-1 bound is 0, so one ulp below it cuts every column
    huge = MethodSpec("raps", 0.1, penalty=1e6, kreg=2, randomized=False)
    nothing = ConformalModel(huge, -5e-324, 10, 0, 100)
    # a penalty that prices out every rank past kreg whatever the mass
    two = ConformalModel(huge, 1.0 + 1e-9, 10, 0, 100)
    lac_sizes, none_sizes, two_sizes = set_sizes_many([lac_all, nothing, two], ss, u)
    np.testing.assert_array_equal(lac_sizes, np.full(ss.n, 100))
    np.testing.assert_array_equal(none_sizes, np.zeros(ss.n))
    np.testing.assert_array_equal(two_sizes, np.full(ss.n, 2))
    for model in (lac_all, nothing, two):
        np.testing.assert_array_equal(set_sizes(model, ss, u), _whole_row_count(model, ss, u))


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
@pytest.mark.parametrize("cells", ["k", "3k", "default"])
def test_set_sizes_many_does_not_depend_on_which_block_holds_a_row(shape, cells):
    k = 100
    ss, u = _size_rows(shape, 2 * (_BLOCK_CELLS // k) + 17, k, 5)
    g = np.random.default_rng(6)
    models = [naive_model(0.1, k), naive_model(0.1, k, False)]
    for spec in MIXED_SPECS:
        if spec.method in ("naive", "fixed_k"):
            continue
        for _ in range(3):
            row, rank = int(g.integers(ss.n)), int(g.integers(1, 12))
            tau = conformity_score(ss, row, rank, u[row] if spec.randomized else 1.0, spec)
            models.append(ConformalModel(spec, tau, 10, 0, k))
    models += _sweep_models(k, seed=3)
    want = set_sizes_many(models, ss, u)
    for model, sizes in zip(models, want):
        np.testing.assert_array_equal(sizes, _old_set_sizes(model, ss, u), err_msg=repr(model.spec))
    perm = g.permutation(ss.n)
    block = {"k": k, "3k": 3 * k, "default": _BLOCK_CELLS}[cells]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cset.score_store, "_BLOCK_CELLS", block)
        got = set_sizes_many(models, ss.take(perm), u[perm])
    for model, a, b in zip(models, want, got):
        np.testing.assert_array_equal(b, a[perm], err_msg=repr(model.spec))


@pytest.mark.parametrize("cells", ["k", "3k", "default"])
def test_set_sizes_many_on_a_sort_narrower_than_k_matches_the_formula(cells):
    # raps models with a heavy penalty reach fewer than K ranks, so the rows
    # can be sorted only that far (plus the edge column), as predict sorts
    # them; those put at an aps threshold have no penalty up to their cut
    # and share its count
    k = 30
    sweep = _sweep_models(k, seed=6)
    models = [model for model in sweep if model.spec.penalty == 1.0 and model.spec.kreg < k]
    for aps in (model for model in sweep if model.spec.method == "aps"):
        for lam in (0.5, 1.0):
            spec = dataclasses.replace(aps.spec, method="raps", penalty=lam, kreg=8)
            models.append(dataclasses.replace(aps, spec=spec))
    m = dirichlet_matrix(40, k, seed=7)
    u = np.random.default_rng(8).random(m.n)
    u[:3] = (0.0, 1.0, 0.0)
    width = cset.conformal._sizer(models, k).reach + 1
    assert width < k
    full = sort_scores(m, seed=9)
    block = {"k": k, "3k": 3 * k, "default": _BLOCK_CELLS}[cells]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cset.score_store, "_BLOCK_CELLS", block)
        got = set_sizes_many(models, sort_scores(m, seed=9, _width=width), u)
    for model, sizes in zip(models, got):
        np.testing.assert_array_equal(sizes, _old_set_sizes(model, full, u), err_msg=repr(model.spec))


@pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
def test_set_sizes_many_refuses_u_outside_the_unit_interval(bad):
    ss, u = _size_rows("tie_free", 10, 4, 0)
    u[3] = bad
    model = ConformalModel(MethodSpec("aps", 0.1), 0.5, 10, 0, 4)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        set_sizes_many([model], ss, u)
    # a deterministic model never reads u
    set_sizes_many([as_deterministic(model)], ss, u)


# -------------------------------------------------- raps size cap, closed form


def _cap(model, k):
    """kreg + max{j : fl(penalty * j) <= tau}, one more when boundary-inclusive, at most K."""
    spec = model.spec
    j = np.arange(k + 1)
    reach = int(j[spec.penalty * j <= model.tau_hat].max())
    return min(k, spec.kreg + reach + spec.boundary_inclusive)


@st.composite
def raps_cap_cases(draw):
    k = draw(st.sampled_from([3, 7, 40, 100]))
    ss, u = _size_rows(draw(st.sampled_from(SIZE_ROW_SHAPES)), draw(st.integers(1, 300)), k,
                       draw(st.integers(0, 2**32 - 1)))
    randomized = draw(st.booleans())
    spec = MethodSpec("raps", 0.1, penalty=draw(st.floats(1e-4, 0.5)),
                      kreg=draw(st.integers(1, 6)), randomized=randomized,
                      boundary_inclusive=not randomized and draw(st.booleans()))
    return ss, u, ConformalModel(spec, draw(st.floats(0.0, 2.0)), 10, 0, k)


@given(raps_cap_cases())
def test_raps_sets_never_pass_the_penalty_cap(case):
    # Every base score is at least 0 and rounding is monotone, so rank r
    # scores at least fl(penalty * (r - kreg)) and is out once that passes tau.
    ss, u, model = case
    assert set_sizes(model, ss, u).max() <= _cap(model, ss.n_classes)


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
@pytest.mark.parametrize("randomized", [True, False], ids=["randomized", "deterministic"])
def test_calibrated_raps_sets_never_pass_the_penalty_cap(shape, randomized):
    ss, u = _size_rows(shape, 400, 40, seed=31)
    # labels in the top four ranks keep tau small enough that the cap is below K
    labels = ss.perm[np.arange(ss.n), np.random.default_rng(7).integers(0, 4, ss.n)]
    for penalty, kreg in ((0.02, 1), (0.05, 3), (0.2, 5), (0.5, 2)):
        spec = MethodSpec("raps", 0.1, penalty=penalty, kreg=kreg, randomized=randomized,
                          boundary_inclusive=not randomized)
        model = calibrate(ss, labels, spec, seed=3)
        assert _cap(model, 40) < 40
        assert set_sizes(model, ss, u).max() <= _cap(model, 40)


def _twin(model):
    """The randomized model with the same threshold."""
    s = model.spec
    spec = MethodSpec(s.method, s.alpha, penalty=s.penalty, kreg=s.kreg)
    return ConformalModel(spec, model.tau_hat, model.n_cal, model.seed, model.n_classes)


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
@pytest.mark.parametrize("randomized", [True, False], ids=["randomized", "deterministic"])
@pytest.mark.parametrize("spec_args", [("aps", 0.0, 1), ("raps", 0.05, 2), ("lac", 0.0, 1)],
                         ids=["aps", "raps", "lac"])
def test_set_size_given_u_gives_the_randomized_twin_sizes(shape, randomized, spec_args):
    method, penalty, kreg = spec_args
    ss, _ = _size_rows(shape, 40, 7, seed=21)
    labels = ss.perm[np.arange(ss.n), np.random.default_rng(3).integers(0, 7, ss.n)]
    spec = MethodSpec(method, 0.2, penalty=penalty, kreg=kreg, randomized=randomized,
                      boundary_inclusive=not randomized and method != "lac")
    model = calibrate(ss, labels, spec, seed=2)
    twin = _twin(model)
    for row in range(ss.n):
        one = ss.take(np.array([row]))
        s0, s1, v = set_size_given_u(model, ss, row)
        assert s0 == set_sizes(twin, one, np.array([0.0]))[0]
        assert s1 == set_sizes(twin, one, np.array([1.0]))[0]
        assert s0 - s1 in (0, 1) and 0.0 <= v <= 1.0
        if s0 == s1:
            assert v == 1.0


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
def test_set_size_given_u_expected_size_identity_for_raps(shape):
    ss, _ = _size_rows(shape, 30, 6, seed=17)
    labels = ss.perm[np.arange(ss.n), np.random.default_rng(4).integers(0, 3, ss.n)]
    model = calibrate(ss, labels, MethodSpec("raps", 0.2, penalty=0.04, kreg=2), seed=5)
    grid = np.linspace(0.0005, 0.9995, 2001)
    moved = 0
    for row in range(ss.n):
        s0, s1, v = set_size_given_u(model, ss, row)
        moved += s0 != s1
        sizes = set_sizes(model, ss.take(np.full(grid.size, row)), grid)
        assert np.mean(sizes) == pytest.approx(v * s0 + (1 - v) * s1, abs=2e-3)
    assert moved > 0


@pytest.mark.parametrize("spec", [
    MethodSpec("aps", 0.1), MethodSpec("raps", 0.1, penalty=0.1), MethodSpec("lac", 0.1),
    MethodSpec("naive", 0.1), MethodSpec("aps", 0.1, randomized=False),
], ids=["aps", "raps", "lac", "naive", "aps_deterministic"])
def test_set_size_given_u_refuses_a_model_for_another_class_count(spec):
    ss = sorted_row(0.5, 0.3, 0.2)
    with pytest.raises(DataError, match="K=5"):
        set_size_given_u(ConformalModel(spec, 0.85, 10, 0, n_classes=5), ss, 0)


# ---------------------------------------- calibrate and predict input rules


@pytest.mark.parametrize("shape", SIZE_ROW_SHAPES)
def test_lac_threshold_is_the_same_randomized_or_not(shape):
    ss, _ = _size_rows(shape, 50, 6, seed=9)
    labels = ss.perm[np.arange(ss.n), np.random.default_rng(2).integers(0, 6, ss.n)]
    for alpha in (0.05, 0.1, 0.3):
        rand = calibrate(ss, labels, MethodSpec("lac", alpha), seed=4)
        det = calibrate(ss, labels, MethodSpec("lac", alpha, randomized=False), seed=4)
        assert repr(rand.tau_hat) == repr(det.tau_hat)


@pytest.mark.parametrize("method", ["aps", "raps", "lac"])
def test_calibrate_refuses_labels_that_are_not_one_per_row(method):
    ss, _ = _size_rows("tie_free", 10, 4, seed=1)
    for labels in (np.zeros(9, dtype=int), np.zeros(11, dtype=int), np.zeros((10, 1), dtype=int)):
        with pytest.raises(DataError, match="one integer per row"):
            calibrate(ss, labels, MethodSpec(method, 0.1), seed=0)


@pytest.mark.parametrize("model", [
    ConformalModel(MethodSpec("aps", 0.1), 0.85, 10, 0, 3),
    ConformalModel(MethodSpec("raps", 0.1, penalty=0.1), 0.85, 10, 0, 3),
    ConformalModel(MethodSpec("lac", 0.1), 0.6, 10, 0, 3),
    naive_model(0.1, 3),
    ConformalModel(MethodSpec("fixed_k", 0.1), math.inf, 10, 0, 3, k_star=2, mix_prob=0.5),
], ids=["aps", "raps", "lac", "naive", "fixed_k"])
def test_predict_refuses_a_missing_u_on_every_randomized_model(model):
    ss = sorted_row(0.5, 0.3, 0.2)
    with pytest.raises(ValueError, match="randomized model needs"):
        predict(model, ss, 0)
    # a deterministic model ignores u, even one outside [0, 1], and records none
    assert predict(as_deterministic(model), ss, 0, u=1.5).u is None


def test_model_round_trip_numpy_bools(tmp_path):
    spec = MethodSpec("aps", 0.1, randomized=np.bool_(False), boundary_inclusive=np.bool_(True))
    model = ConformalModel(spec, 0.85, 10, 0, 3)
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    text = path.read_text()
    assert "randomized = false\n" in text and "boundary_inclusive = true\n" in text
    assert cset.load_model(str(path)) == model
