import numpy as np
import pytest

import cset
from cset.conformal import MethodSpec
from cset.metrics import DifficultyRow, EvalReport, StratumRow
from cset.trials import (
    MethodPolicy,
    TrialProtocol,
    _aggregate,
    run_synth_trials,
    run_trials,
    run_trials_multi,
)

from conftest import dirichlet_matrix


def small_protocol(**kw):
    base = dict(n_trials=3, cal_size=120, eval_size=120, seed=5)
    base.update(kw)
    return TrialProtocol(**base)


def test_pool_trials_deterministic():
    m = dirichlet_matrix(300, 8, seed=0, concentration=0.8)
    pol = MethodPolicy(MethodSpec("aps", 0.2))
    a = run_trials(m, small_protocol(), pol)
    b = run_trials(m, small_protocol(), pol)
    np.testing.assert_array_equal(a.coverage, b.coverage)
    np.testing.assert_array_equal(a.avg_size, b.avg_size)
    c = run_trials(m, small_protocol(seed=6), pol)
    assert (a.coverage != c.coverage).any()


def test_multi_shares_splits_across_methods():
    m = dirichlet_matrix(300, 8, seed=1, concentration=0.8)
    pols = {
        "aps": MethodPolicy(MethodSpec("aps", 0.2)),
        "raps0": MethodPolicy(MethodSpec("raps", 0.2, penalty=0.0, kreg=1)),
    }
    aggs = run_trials_multi(m, small_protocol(), pols)
    # identical methods on identical splits must agree trial by trial
    np.testing.assert_array_equal(aggs["aps"].coverage, aggs["raps0"].coverage)
    np.testing.assert_array_equal(aggs["aps"].avg_size, aggs["raps0"].avg_size)


def test_single_trial_matches_batch_element():
    m = dirichlet_matrix(300, 8, seed=2, concentration=0.8)
    pol = MethodPolicy(MethodSpec("aps", 0.2))
    one = run_trials(m, small_protocol(n_trials=1), pol)
    many = run_trials(m, small_protocol(n_trials=4), pol)
    assert one.coverage[0] == many.coverage[0]
    assert one.avg_size[0] == many.avg_size[0]


def test_median_of_means_aggregation():
    m = dirichlet_matrix(300, 8, seed=3, concentration=0.8)
    pol = MethodPolicy(MethodSpec("aps", 0.2))
    agg = run_trials(m, small_protocol(n_trials=5), pol)
    assert agg.n_trials == 5
    assert agg.median_coverage == np.median(agg.coverage)
    assert agg.median_size == np.median(agg.avg_size)
    assert agg.median_sscv == np.median(agg.sscv)
    assert sum(agg.size_hist.values()) == 5 * 120


def test_trial_aggregate_n1_medians():
    m = dirichlet_matrix(260, 8, seed=4, concentration=0.8)
    pol = MethodPolicy(MethodSpec("lac", 0.2))
    agg = run_trials(m, small_protocol(n_trials=1), pol)
    assert agg.median_coverage == agg.coverage[0]


def test_fixed_k_policy():
    m = dirichlet_matrix(400, 8, seed=5, concentration=0.8)
    pol = MethodPolicy(MethodSpec("fixed_k", 0.2))
    agg = run_trials(m, small_protocol(), pol)
    assert (agg.coverage > 0.5).all()


def test_naive_policy_ignores_calibration():
    m = dirichlet_matrix(300, 8, seed=6, concentration=0.8)
    pol = MethodPolicy(MethodSpec("naive", 0.2))
    agg = run_trials(m, small_protocol(), pol)
    assert agg.n_trials == 3
    assert (agg.penalties == 0).all()


def test_tuned_policy_requires_tune_split():
    m = dirichlet_matrix(300, 8, seed=7, concentration=0.8)
    pol = MethodPolicy(MethodSpec("raps", 0.2), tune_objective="size")
    with pytest.raises(ValueError):
        run_trials(m, small_protocol(tune_size=0), pol)


def test_tuning_only_for_raps():
    with pytest.raises(ValueError):
        MethodPolicy(MethodSpec("aps", 0.2), tune_objective="size")
    with pytest.raises(ValueError):
        MethodPolicy(MethodSpec("raps", 0.2), tune_objective="entropy")


def test_tuned_policy_records_choices():
    m = dirichlet_matrix(500, 10, seed=8, concentration=0.8)
    pol = MethodPolicy(MethodSpec("raps", 0.2), tune_objective="size")
    agg = run_trials(m, small_protocol(tune_size=200, cal_size=150, eval_size=150), pol)
    from cset.tuning import SIZE_LAMBDA_GRID

    assert all(p in SIZE_LAMBDA_GRID for p in agg.penalties)
    assert (agg.kregs >= 1).all()


def test_logit_input_gets_temperature_scaled():
    g = np.random.default_rng(9)
    z = g.normal(0, 2.0, size=(400, 6))
    labels = g.integers(0, 6, size=400)
    m = cset.ScoreMatrix(z, labels, "logits")
    pol = MethodPolicy(MethodSpec("aps", 0.2))
    agg = run_trials(m, small_protocol(), pol)
    assert agg.n_trials == 3
    assert np.isfinite(agg.coverage).all()


def test_synth_trials_fresh_data_per_trial():
    sspec = cset.SynthSpec(n=1, n_classes=10, seed=0)
    proto = small_protocol(n_trials=4)
    aggs = run_synth_trials(sspec, proto, {"aps": MethodPolicy(MethodSpec("aps", 0.2))})
    agg = aggs["aps"]
    # fresh draws: trials differ, and rerunning reproduces them exactly
    assert len(np.unique(agg.coverage)) > 1
    again = run_synth_trials(sspec, proto, {"aps": MethodPolicy(MethodSpec("aps", 0.2))})
    np.testing.assert_array_equal(agg.coverage, again["aps"].coverage)


def test_synth_trials_reject_fractional_sizes():
    sspec = cset.SynthSpec(n=1, n_classes=10, seed=0)
    proto = TrialProtocol(n_trials=2, cal_size=0.5, eval_size=0.5, seed=1)
    with pytest.raises(ValueError):
        run_synth_trials(sspec, proto, {"aps": MethodPolicy(MethodSpec("aps", 0.2))})


@pytest.mark.parametrize("cal_size, eval_size", [(0, 50), (50, 0)])
def test_synth_trials_refuse_an_empty_split_before_any_data(monkeypatch, cal_size, eval_size):
    def no_data(*_):
        raise AssertionError("data generated before the split sizes were checked")

    monkeypatch.setattr("cset.trials.generate", no_data)
    sspec = cset.SynthSpec(n=1, n_classes=10, seed=0)
    proto = TrialProtocol(n_trials=2, cal_size=cal_size, eval_size=eval_size, seed=1)
    with pytest.raises(ValueError, match="calibration and evaluation splits must be nonempty"):
        run_synth_trials(sspec, proto, {"aps": MethodPolicy(MethodSpec("aps", 0.2))})


def _pool_keyed_by_bounds(reports):
    """Strata and difficulty pooling keyed by (lo, hi): the reference for the
    positional pooling in trials._aggregate."""
    strata_acc, diff_acc = {}, {}
    for r in reports:
        for row in r.per_stratum:
            acc = strata_acc.setdefault((row.lo, row.hi), [0, []])
            acc[0] += row.count
            if row.coverage is not None:
                acc[1].append(row.coverage)
        for row in r.per_difficulty:
            acc = diff_acc.setdefault((row.lo, row.hi), [0, [], []])
            acc[0] += row.count
            if row.coverage is not None:
                acc[1].append(row.coverage)
                acc[2].append(row.avg_size)
    per_stratum = tuple(
        StratumRow(lo, hi, cnt, float(np.median(covs)) if covs else None)
        for (lo, hi), (cnt, covs) in strata_acc.items()
    )
    per_difficulty = tuple(
        DifficultyRow(lo, hi, cnt, float(np.median(covs)) if covs else None,
                      float(np.median(szs)) if szs else None)
        for (lo, hi), (cnt, covs, szs) in diff_acc.items()
    )
    return per_stratum, per_difficulty


def test_aggregate_pools_table_rows_by_position():
    def report(strata, bins):
        return EvalReport(
            n_eval=5, coverage=0.8, avg_size=2.0, sscv=0.1, top1=0.6, top5=0.9,
            size_hist={1: 2, 3: 3},
            per_stratum=tuple(StratumRow(*row) for row in strata),
            per_difficulty=tuple(DifficultyRow(*row) for row in bins),
        )

    # strata deliberately out of size order; (2, 3) is empty in trial 0 only,
    # (4, 10) and the difficulty bin (4, 10) are empty in every trial
    reports = [
        report([(2, 3, 0, None), (0, 1, 5, 0.8), (4, 10, 0, None)],
               [(1, 1, 4, 1.0, 1.5), (2, 3, 1, 0.0, 2.0), (4, 10, 0, None, None)]),
        report([(2, 3, 2, 1.0), (0, 1, 3, 0.6), (4, 10, 0, None)],
               [(1, 1, 3, 1.0, 1.0), (2, 3, 0, None, None), (4, 10, 0, None, None)]),
        report([(2, 3, 1, 0.5), (0, 1, 4, 0.7), (4, 10, 0, None)],
               [(1, 1, 2, 0.5, 3.0), (2, 3, 3, 0.25, 2.5), (4, 10, 0, None, None)]),
    ]
    agg = _aggregate([(r, MethodSpec("aps", 0.2)) for r in reports])

    assert (agg.per_stratum, agg.per_difficulty) == _pool_keyed_by_bounds(reports)
    assert agg.per_stratum == (
        StratumRow(2, 3, 3, 0.75),  # median of the two nonempty trials
        StratumRow(0, 1, 12, 0.7),
        StratumRow(4, 10, 0, None),
    )
    assert agg.per_difficulty == (
        DifficultyRow(1, 1, 9, 1.0, 1.5),
        DifficultyRow(2, 3, 4, 0.125, 2.25),
        DifficultyRow(4, 10, 0, None, None),
    )
    assert agg.size_hist == {1: 6, 3: 9}


def test_adaptiveness_tuning_follows_the_protocol_strata():
    # Each trial's tuned penalty must be the one the adaptiveness tuner picks
    # with the protocol's strata on that trial's tuning split. On this data
    # the default strata pick differently in some trials, so a trial loop
    # that drops the strata fails here.
    from cset import seeds
    from cset.score_store import SplitSpec, sort_scores, split
    from cset.tuning import ADAPT_LAMBDA_GRID, tune_for_adaptiveness

    spec = cset.SynthSpec(n=6000, n_classes=50, corruption="tail_permute",
                          corruption_param=5, seed=2)
    _, m = cset.generate(spec)
    strata = ((0, 1), (2, 2), (3, 4), (5, 50))
    protocol = TrialProtocol(n_trials=4, cal_size=1500, eval_size=2000, tune_size=1500,
                             seed=1, strata=strata)
    pol = MethodPolicy(MethodSpec("raps", 0.1), tune_objective="adaptiveness")
    agg = run_trials(m, protocol, pol)
    differs = 0
    for t in range(protocol.n_trials):
        trial_seed = seeds.child_seed(protocol.seed, seeds.TRIAL, t)
        tune_m, _, _ = split(m, SplitSpec(seed=trial_seed, sizes=(1500, 1500, 2000)))
        ss = sort_scores(tune_m, seeds.child_seed(trial_seed, seeds.SORT, 0))
        tune_seed = seeds.child_seed(trial_seed, seeds.TUNE)
        chosen = tune_for_adaptiveness(ss, tune_m.labels, 0.1, ADAPT_LAMBDA_GRID, tune_seed,
                                       strata=strata)
        default = tune_for_adaptiveness(ss, tune_m.labels, 0.1, ADAPT_LAMBDA_GRID, tune_seed)
        assert agg.penalties[t] == chosen.penalty
        assert agg.kregs[t] == chosen.kreg
        differs += chosen.penalty != default.penalty
    assert differs > 0


def _record_calls(monkeypatch, module, name):
    """Wrap module.name so that the positional arguments of each call are recorded."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("tuned, per_trial", [(False, 2), (True, 3)])
def test_tuning_split_is_sorted_only_when_a_policy_tunes(monkeypatch, tuned, per_trial):
    import cset.trials as trials
    from cset import seeds

    m = dirichlet_matrix(500, 10, seed=8, concentration=0.8)
    sorts = _record_calls(monkeypatch, trials, "sort_scores")
    pols = {"aps": MethodPolicy(MethodSpec("aps", 0.2)),
            "raps": MethodPolicy(MethodSpec("raps", 0.2, penalty=0.01),
                                 tune_objective="size" if tuned else None)}
    protocol = small_protocol(tune_size=200, cal_size=150, eval_size=150)
    run_trials_multi(m, protocol, pols)
    # each split is sorted with its own (SORT, part) child of the trial seed
    parts = [(0, 200), (1, 150), (2, 150)] if tuned else [(1, 150), (2, 150)]
    expected = []
    for t in range(protocol.n_trials):
        trial_seed = seeds.child_seed(protocol.seed, seeds.TRIAL, t)
        expected += [(n, seeds.child_seed(trial_seed, seeds.SORT, part)) for part, n in parts]
    assert len(sorts) == per_trial * protocol.n_trials
    assert [(m.n, seed) for m, seed in sorts] == expected


def test_platt_split_tuning_fits_on_the_raw_tuning_logits_with_a_fixed_lambda(monkeypatch):
    import cset.trials as trials
    from cset import seeds
    from cset.score_store import SplitSpec, split

    g = np.random.default_rng(10)
    m = cset.ScoreMatrix(g.normal(0, 2.0, size=(500, 6)), g.integers(0, 6, 500), "logits")
    fits = _record_calls(monkeypatch, trials, "fit_temperature")
    sorts = _record_calls(monkeypatch, trials, "sort_scores")
    protocol = small_protocol(tune_size=200, cal_size=150, eval_size=150, platt_split="tuning")
    run_trials(m, protocol, MethodPolicy(MethodSpec("raps", 0.2, penalty=0.05, kreg=2)))
    assert len(fits) == protocol.n_trials and len(sorts) == 2 * protocol.n_trials
    for t, (fit_on,) in enumerate(fits):
        trial_seed = seeds.child_seed(protocol.seed, seeds.TRIAL, t)
        tune_m, _, _ = split(m, SplitSpec(seed=trial_seed, sizes=(200, 150, 150)))
        assert fit_on.kind == "logits"
        np.testing.assert_array_equal(fit_on.scores, tune_m.scores)
        np.testing.assert_array_equal(fit_on.labels, tune_m.labels)


def test_empty_tuning_split_fails_before_any_fit(monkeypatch):
    import cset.trials as trials

    g = np.random.default_rng(11)
    m = cset.ScoreMatrix(g.normal(0, 2.0, size=(400, 6)), g.integers(0, 6, 400), "logits")
    fits = _record_calls(monkeypatch, trials, "fit_temperature")
    sorts = _record_calls(monkeypatch, trials, "sort_scores")
    pol = MethodPolicy(MethodSpec("raps", 0.2), tune_objective="size")
    with pytest.raises(ValueError, match="tuning split is empty"):
        run_trials(m, small_protocol(tune_size=0), pol)
    assert fits == [] and sorts == []


@pytest.mark.parametrize("strata", [((0, 2), (2, 8)), (), ((0, 1), (3, 2))])
def test_protocol_rejects_bad_strata_before_any_trial(strata):
    with pytest.raises(ValueError):
        small_protocol(strata=strata)
