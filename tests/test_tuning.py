import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cset
from cset.conformal import MethodSpec, set_sizes
from cset.score_store import DataError, ScoreMatrix, sort_scores
from cset.tuning import (
    ADAPT_LAMBDA_GRID,
    SIZE_LAMBDA_GRID,
    fixed_k_star,
    make_fixed_k_model,
    tune_for_adaptiveness,
    tune_for_size,
)

from conftest import dirichlet_matrix


def matrix_with_ranks(ranks, k=4, seed=0):
    """Rows whose label rank (1-based, after sorting) is exactly as given."""
    n = len(ranks)
    base = np.arange(k, 0, -1) / (k * (k + 1) / 2)  # k=4 -> (0.4, 0.3, 0.2, 0.1)
    scores = np.tile(base, (n, 1))
    labels = np.array([r - 1 for r in ranks])  # descending rows: rank r = class r-1
    return ScoreMatrix(scores, labels, "probabilities")


def test_k_star_hand_example():
    m = matrix_with_ranks([1, 1, 2, 3, 1])
    ss = sort_scores(m, seed=0)
    assert fixed_k_star(ss, m.labels, alpha=0.4) == 2


def test_k_star_overflows_to_k():
    m = matrix_with_ranks([1, 1, 1, 1])
    ss = sort_scores(m, seed=0)
    assert fixed_k_star(ss, m.labels, alpha=0.1) == 4


@given(st.lists(st.integers(1, 6), min_size=1, max_size=40))
def test_k_star_monotone_in_alpha(ranks):
    m = matrix_with_ranks(ranks, k=6)
    ss = sort_scores(m, seed=0)
    ks = [fixed_k_star(ss, m.labels, a) for a in (0.4, 0.3, 0.2, 0.1)]
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_mix_prob_hand_example():
    # 17 rank-1, 2 rank-2, 1 rank-3: c_1=0.85, c_2=0.95, alpha=0.1 -> 0.5
    ranks = [1] * 17 + [2] * 2 + [3]
    m = matrix_with_ranks(ranks)
    ss = sort_scores(m, seed=0)
    model = make_fixed_k_model(ss, m.labels, alpha=0.1, seed=0)
    assert model.k_star == 2
    assert model.mix_prob == pytest.approx(0.5, abs=1e-9)


def test_mix_prob_boundary_case():
    # 18 rank-1, 2 rank-2: c_1 = 0.9 hits the target exactly, so the model
    # should predict k*-1 classes with probability one
    ranks = [1] * 18 + [2] * 2
    m = matrix_with_ranks(ranks)
    ss = sort_scores(m, seed=0)
    model = make_fixed_k_model(ss, m.labels, alpha=0.1, seed=0)
    assert model.k_star == 2
    assert model.mix_prob == pytest.approx(1.0, abs=1e-9)


def test_fixed_k_mixed_coverage_near_target():
    spec = cset.SynthSpec(n=4000, n_classes=12, seed=5)
    _, m = cset.generate(spec)
    ss = sort_scores(m, seed=0)
    model = make_fixed_k_model(ss, m.labels, alpha=0.2, seed=0)
    ranks = ss.label_ranks(m.labels)
    c_lo = float(np.mean(ranks <= model.k_star - 1))
    c_hi = float(np.mean(ranks <= model.k_star))
    expected = model.mix_prob * c_lo + (1 - model.mix_prob) * c_hi
    # the mixture is built to land within 1/n of target on its own split
    assert abs(expected - 0.8) <= 1.0 / m.n + 1e-12


def test_fixed_k_sizes_only_two_values():
    spec = cset.SynthSpec(n=500, n_classes=10, seed=6)
    _, m = cset.generate(spec)
    ss = sort_scores(m, seed=0)
    model = make_fixed_k_model(ss, m.labels, alpha=0.2, seed=0)
    u = np.random.default_rng(1).random(m.n)
    sizes = set_sizes(model, ss, u=u)
    assert set(np.unique(sizes)) <= {model.k_star - 1, model.k_star}


def test_tune_rejects_tiny_input():
    m = dirichlet_matrix(19, 4, seed=0)
    ss = sort_scores(m, seed=0)
    with pytest.raises(DataError):
        tune_for_size(ss, m.labels, alpha=0.2, seed=0)


def test_tune_for_size_result_fields():
    m = dirichlet_matrix(400, 10, seed=1, concentration=1.0)
    ss = sort_scores(m, seed=0)
    res = tune_for_size(ss, m.labels, alpha=0.1, seed=0)
    assert res.penalty in SIZE_LAMBDA_GRID
    assert res.kreg >= 1
    assert res.kreg == res.k_star
    assert len(res.grid) == len(SIZE_LAMBDA_GRID)
    assert res.objective == "size"
    # selected penalty achieves the grid minimum (ties to larger lambda)
    best = min(v for _, v in res.grid)
    assert dict(res.grid)[res.penalty] == best
    candidates = [lam for lam, v in res.grid if v == best]
    assert res.penalty == max(candidates)


def test_tune_for_adaptiveness_ties_to_smaller_lambda():
    m = dirichlet_matrix(400, 10, seed=2, concentration=1.0)
    ss = sort_scores(m, seed=0)
    res = tune_for_adaptiveness(ss, m.labels, alpha=0.1, seed=0)
    assert res.penalty in ADAPT_LAMBDA_GRID
    assert res.objective == "adaptiveness"
    best = min(v for _, v in res.grid)
    assert dict(res.grid)[res.penalty] == best
    candidates = [lam for lam, v in res.grid if v == best]
    assert res.penalty == min(candidates)


def test_tune_single_point_grid():
    m = dirichlet_matrix(200, 6, seed=3)
    ss = sort_scores(m, seed=0)
    res = tune_for_size(ss, m.labels, alpha=0.2, seed=0, grid=(0.05,))
    assert res.penalty == 0.05
    assert len(res.grid) == 1


def test_tune_is_deterministic():
    m = dirichlet_matrix(300, 8, seed=4, concentration=1.0)
    ss = sort_scores(m, seed=0)
    a = tune_for_size(ss, m.labels, alpha=0.1, seed=9)
    b = tune_for_size(ss, m.labels, alpha=0.1, seed=9)
    assert a == b


def test_tune_for_size_beats_unpenalized_on_heavy_tail():
    # on tail-noise data the selected penalty must shrink mean size well
    # below the lambda=0 entry (plain cumulative-probability sets)
    spec = cset.SynthSpec(
        n=3000, n_classes=100, concentration=0.4,
        corruption="tail_permute", corruption_param=1, seed=7,
    )
    _, m = cset.generate(spec)
    ss = sort_scores(m, seed=0)
    res = tune_for_size(ss, m.labels, alpha=0.1, seed=0, grid=(0.0,) + SIZE_LAMBDA_GRID)
    by_lam = dict(res.grid)
    assert res.penalty > 0.0
    assert by_lam[res.penalty] < 0.8 * by_lam[0.0]


@pytest.mark.parametrize("objective, wrapper, grid", [
    ("size", tune_for_size, SIZE_LAMBDA_GRID),
    ("adaptiveness", tune_for_adaptiveness, ADAPT_LAMBDA_GRID),
])
def test_tune_dispatches_to_the_objective_and_its_default_grid(objective, wrapper, grid):
    from cset.tuning import tune

    m = dirichlet_matrix(300, 12, seed=31, concentration=0.5)
    ss = sort_scores(m, seed=0)
    assert tune(ss, m.labels, 0.1, objective, seed=4) == wrapper(ss, m.labels, 0.1, grid, 4)
    custom = (0.0, 0.003, 0.3)
    assert tune(ss, m.labels, 0.1, objective, custom, 4) == wrapper(ss, m.labels, 0.1, custom, 4)


def test_tune_passes_strata_to_the_adaptiveness_tuner_only():
    from cset.tuning import tune

    m = dirichlet_matrix(300, 12, seed=32, concentration=0.5)
    ss = sort_scores(m, seed=0)
    strata = ((0, 2), (3, 12))
    assert tune(ss, m.labels, 0.1, "adaptiveness", None, 5, strata) == tune_for_adaptiveness(
        ss, m.labels, 0.1, ADAPT_LAMBDA_GRID, 5, strata)
    assert tune(ss, m.labels, 0.1, "size", None, 5, strata) == tune_for_size(
        ss, m.labels, 0.1, SIZE_LAMBDA_GRID, 5)


@pytest.mark.parametrize("objective", ["size", "adaptiveness"])
def test_each_grid_value_is_measured_on_the_nested_halves(objective):
    # Grid point j calibrates raps at k_star on the first nested half and
    # sizes the second, whose own label ranks give its coverage.
    from cset import seeds
    from cset.conformal import calibrate
    from cset.metrics import default_strata, sscv_from_arrays
    from cset.tuning import _nested_halves, tune

    spec = cset.SynthSpec(n=600, n_classes=20, corruption="tail_permute", corruption_param=3,
                          seed=7)
    m = cset.generate(spec)[1]
    ss = sort_scores(m, seed=4)
    res = tune(ss, m.labels, 0.1, objective, (0.0, 0.001, 0.01, 0.1), seed=9)
    k_star = fixed_k_star(ss, m.labels, 0.1)
    cal_idx, ev_idx = _nested_halves(m.n, 9)
    ss_cal, ss_ev = ss.take(cal_idx), ss.take(ev_idx)
    ranks_ev = ss_ev.label_ranks(m.labels[ev_idx])
    for j, (penalty, value) in enumerate(res.grid):
        raps = MethodSpec("raps", 0.1, penalty=penalty, kreg=k_star)
        model = calibrate(ss_cal, m.labels[cal_idx], raps, seeds.child_seed(9, seeds.TUNE_GRID, j))
        sizes = set_sizes(model, ss_ev, seeds.rng(9, seeds.TUNE_GRID, j, seeds.EVAL_U).random(300))
        want = (float(np.mean(sizes)) if objective == "size"
                else sscv_from_arrays(sizes, ranks_ev <= sizes, default_strata(20), 0.1))
        assert np.float64(value).tobytes() == np.float64(want).tobytes(), (penalty, value, want)


def test_tune_rejects_an_unknown_objective():
    from cset.tuning import tune

    m = dirichlet_matrix(100, 5, seed=33)
    with pytest.raises(ValueError, match="unknown tune objective 'entropy'"):
        tune(sort_scores(m, seed=0), m.labels, 0.1, "entropy")


@pytest.mark.parametrize("spec", [
    MethodSpec("naive", 0.1, randomized=False),
    MethodSpec("fixed_k", 0.1),
    MethodSpec("fixed_k", 0.1, randomized=False),
    MethodSpec("aps", 0.1),
    MethodSpec("raps", 0.1, penalty=0.01, kreg=3),
    MethodSpec("lac", 0.1),
])
def test_fit_model_picks_the_method_fitter(spec):
    from cset.conformal import calibrate, naive_model
    from cset.tuning import fit_model

    m = dirichlet_matrix(200, 8, seed=34, concentration=0.5)
    ss = sort_scores(m, seed=0)
    if spec.method == "naive":
        expected = naive_model(0.1, 8, randomized=False)
    elif spec.method == "fixed_k":
        expected = make_fixed_k_model(ss, m.labels, 0.1, 6, spec.randomized)
    else:
        expected = calibrate(ss, m.labels, spec, seed=6)
    assert fit_model(ss, m.labels, spec, 6) == expected
