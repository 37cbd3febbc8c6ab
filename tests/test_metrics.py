import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cset
from cset.conformal import ConformalModel, MethodSpec, calibrate
from cset.metrics import (
    coverage_and_size,
    default_difficulty_bins,
    default_strata,
    difficulty_table,
    evaluate_model,
    size_histogram,
    sscv,
    sscv_from_arrays,
    strata_rows,
)
from cset.score_store import DataError, ScoreMatrix, sort_scores

from conftest import dirichlet_matrix


def test_coverage_hand_example():
    sets = ({0}, {1, 2}, {0, 1})
    labels = (0, 2, 2)
    cov, size = coverage_and_size(sets, labels)
    assert cov == pytest.approx(2 / 3, abs=1e-12)
    assert size == pytest.approx(5 / 3, abs=1e-12)


def test_sscv_hand_example():
    sizes = np.array([1, 1, 2, 3])
    covered = np.array([True, False, True, True])
    got = sscv_from_arrays(sizes, covered, ((1, 1), (2, 3)), alpha=0.1)
    assert got == pytest.approx(0.4, abs=1e-9)


def test_sscv_skips_empty_strata():
    sizes = np.array([1, 1])
    covered = np.array([True, True])
    got = sscv_from_arrays(sizes, covered, ((1, 1), (2, 3)), alpha=0.5)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_sscv_rejects_unknown_size():
    sizes = np.array([1, 7])
    covered = np.array([True, True])
    with pytest.raises(DataError, match="7"):
        sscv_from_arrays(sizes, covered, ((1, 1), (2, 3)), alpha=0.5)


def test_sscv_rejects_overlapping_strata():
    sizes = np.array([1])
    covered = np.array([True])
    with pytest.raises(ValueError):
        sscv_from_arrays(sizes, covered, ((1, 2), (2, 3)), alpha=0.5)


def brute_force_sscv(sizes, covered, strata, alpha):
    """Independent re-count with dict buckets, no numpy."""
    buckets = {}
    for s, c in zip(sizes, covered):
        home = None
        for lo, hi in strata:
            if lo <= s <= hi:
                home = (lo, hi)
        if home is None:
            raise AssertionError("unassigned size")
        buckets.setdefault(home, []).append(bool(c))
    worst = None
    for vals in buckets.values():
        dev = abs(sum(vals) / len(vals) - (1 - alpha))
        worst = dev if worst is None else max(worst, dev)
    return worst


def test_sscv_matches_brute_force_on_random_instances():
    g = np.random.default_rng(2024)
    strata_options = [
        ((0, 1), (2, 3), (4, 10)),
        ((0, 2), (3, 10)),
        ((0, 0), (1, 1), (2, 4), (5, 10)),
    ]
    for trial in range(50):
        n = int(g.integers(1, 21))
        sizes = g.integers(0, 11, size=n)
        covered = g.random(n) < 0.7
        strata = strata_options[trial % len(strata_options)]
        alpha = float(g.uniform(0.05, 0.5))
        want = brute_force_sscv(sizes, covered, strata, alpha)
        got = sscv_from_arrays(sizes, covered, strata, alpha)
        assert got == pytest.approx(want, abs=1e-12)


def test_sscv_from_sets_wrapper():
    sets = ({0}, {0, 1}, set(), {1, 2, 3})
    labels = (0, 2, 1, 3)
    got = sscv(sets, labels, ((0, 1), (2, 3)), alpha=0.1)
    # sizes (1,2,0,3): stratum (0,1) coverage 0.5, stratum (2,3) coverage 0.5
    assert got == pytest.approx(0.4, abs=1e-12)


def test_default_strata_clip_to_k():
    assert default_strata(100) == ((0, 1), (2, 3), (4, 10), (11, 100))
    assert default_strata(1000) == ((0, 1), (2, 3), (4, 10), (11, 100), (101, 1000))
    # past K = 1000 the last stratum stretches to K, so no size falls outside
    assert default_strata(1500) == ((0, 1), (2, 3), (4, 10), (11, 100), (101, 1500))
    assert default_strata(10) == ((0, 1), (2, 3), (4, 10))
    assert default_strata(5) == ((0, 1), (2, 3), (4, 5))
    assert default_strata(3) == ((0, 1), (2, 3))


def test_default_difficulty_bins_clip():
    assert default_difficulty_bins(10) == ((1, 1), (2, 3), (4, 6), (7, 10))
    assert default_difficulty_bins(100) == (
        (1, 1), (2, 3), (4, 6), (7, 10), (11, 100)
    )
    assert default_difficulty_bins(1500) == (
        (1, 1), (2, 3), (4, 6), (7, 10), (11, 100), (101, 1500)
    )


def test_strata_rows_counts_and_empty():
    sizes = np.array([0, 1, 1, 5])
    covered = np.array([False, True, True, True])
    rows = strata_rows(sizes, covered, ((0, 1), (2, 3), (4, 10)))
    assert [(r.lo, r.hi, r.count) for r in rows] == [
        (0, 1, 3),
        (2, 3, 0),
        (4, 10, 1),
    ]
    assert rows[0].coverage == pytest.approx(2 / 3)
    assert rows[1].coverage is None


def test_size_histogram_consistency():
    g = np.random.default_rng(5)
    sizes = g.integers(0, 8, size=300)
    hist = size_histogram(sizes)
    assert sum(hist.values()) == 300
    assert sum(s * c for s, c in hist.items()) / 300 == pytest.approx(sizes.mean())
    assert list(hist) == sorted(hist)


def test_evaluate_model_report_is_consistent():
    m = dirichlet_matrix(600, 10, seed=8)
    ss = sort_scores(m, seed=0)
    model = calibrate(ss, m.labels, MethodSpec("aps", 0.2), seed=0)
    rep = evaluate_model(model, ss, m.labels, seed=3)
    assert rep.n_eval == 600
    assert 0.0 <= rep.coverage <= 1.0
    assert 0.0 <= rep.avg_size <= 10.0
    assert sum(rep.size_hist.values()) == 600
    mean_from_hist = sum(s * c for s, c in rep.size_hist.items()) / 600
    assert mean_from_hist == pytest.approx(rep.avg_size, abs=1e-12)
    assert 0.0 <= rep.sscv <= max(0.8, 0.2)
    # top-1 / top-5 come from label ranks, not sets
    ranks = ss.label_ranks(m.labels)
    assert rep.top1 == pytest.approx(np.mean(ranks <= 1))
    assert rep.top5 == pytest.approx(np.mean(ranks <= 5))
    stratum_total = sum(r.count for r in rep.per_stratum)
    assert stratum_total == 600


def test_evaluate_model_is_deterministic_per_seed():
    m = dirichlet_matrix(300, 6, seed=9)
    ss = sort_scores(m, seed=0)
    model = calibrate(ss, m.labels, MethodSpec("aps", 0.1), seed=0)
    a = evaluate_model(model, ss, m.labels, seed=5)
    b = evaluate_model(model, ss, m.labels, seed=5)
    c = evaluate_model(model, ss, m.labels, seed=6)
    assert a == b
    assert a != c


def test_difficulty_bins_monotone_on_oracle_scores():
    # bin-1 (top-1-correct) coverage should beat the deep bins when sets are
    # built from truthful probabilities
    spec = cset.SynthSpec(n=20000, n_classes=100, seed=3)
    _, m = cset.generate(spec)
    ss = sort_scores(m, seed=0)
    model = ConformalModel(
        MethodSpec("aps", 0.1, randomized=True), 0.9, 0, 0, 100
    )
    from cset.seeds import EVAL_U, rng

    u = rng(0, EVAL_U).random(m.n)
    from cset.conformal import set_sizes

    sizes = set_sizes(model, ss, u=u)
    ranks = ss.label_ranks(m.labels)
    covered = ranks <= sizes
    from cset.metrics import difficulty_rows

    rows = difficulty_rows(ranks, sizes, covered, default_difficulty_bins(100))
    cov = {(r.lo, r.hi): r.coverage for r in rows}
    assert cov[(1, 1)] > cov[(11, 100)]


def test_difficulty_table_from_sets():
    m = dirichlet_matrix(50, 8, seed=10)
    ss = sort_scores(m, seed=0)
    sets = [set(ss.perm[i, :2]) for i in range(50)]
    rows = difficulty_table(sets, m.labels, ss)
    assert sum(r.count for r in rows) == 50
    easy = [r for r in rows if (r.lo, r.hi) == (1, 1)][0]
    # top-2 sets always cover rank-1 labels
    assert easy.count == 0 or easy.coverage == 1.0


def test_evaluate_models_matches_one_model_at_a_time():
    # One shared u draw, one ranking and one sizing pass must give each model
    # the report it gets alone, and the report of the one-model code that
    # evaluate_models replaced (set_sizes, label ranks, evaluate_arrays).
    from dataclasses import fields

    from cset.conformal import naive_model, set_sizes
    from cset.metrics import evaluate_arrays, evaluate_models
    from cset.seeds import EVAL_U, rng
    from cset.tuning import make_fixed_k_model

    m = dirichlet_matrix(700, 10, seed=21, concentration=0.6)
    cal, ev = np.arange(300), np.arange(300, 700)
    ss_cal = sort_scores(m.take(cal), seed=1)
    ss_ev, y_ev = sort_scores(m.take(ev), seed=2), m.labels[ev]
    y_cal = m.labels[cal]
    models = [
        naive_model(0.2, 10, True),
        calibrate(ss_cal, y_cal, MethodSpec("aps", 0.2)),
        calibrate(ss_cal, y_cal, MethodSpec("raps", 0.2, penalty=0.05, kreg=2, randomized=False,
                                            boundary_inclusive=True)),
        calibrate(ss_cal, y_cal, MethodSpec("lac", 0.2)),
        make_fixed_k_model(ss_cal, y_cal, 0.2, seed=3),
    ]
    strata = ((0, 1), (2, 3), (4, 10))
    together = evaluate_models(models, ss_ev, y_ev, seed=9, strata=strata)
    assert len(together) == len(models)
    for model, report in zip(models, together):
        alone = evaluate_model(model, ss_ev, y_ev, seed=9, strata=strata)
        u = rng(9, EVAL_U).random(ss_ev.n) if model.spec.randomized else None
        old = evaluate_arrays(set_sizes(model, ss_ev, u), ss_ev.label_ranks(y_ev),
                              model.spec.alpha, strata, default_difficulty_bins(10))
        for f in fields(report):
            assert getattr(report, f.name) == getattr(alone, f.name), (model.spec.method, f.name)
            assert getattr(report, f.name) == getattr(old, f.name), (model.spec.method, f.name)
        assert tuple((r.lo, r.hi) for r in report.per_stratum) == strata


def _old_strata_rows(sizes, covered, strata):
    """strata_rows as one mask per stratum, the code the bincount replaced."""
    hit = np.zeros(sizes.shape, dtype=bool)
    rows = []
    for lo, hi in strata:
        inside = (sizes >= lo) & (sizes <= hi)
        hit |= inside
        cnt = int(inside.sum())
        cov = float(np.mean(covered[inside])) if cnt else None
        rows.append(cset.metrics.StratumRow(lo, hi, cnt, cov))
    if not hit.all():
        s = int(sizes[~hit][0])
        raise DataError(f"set size {s} falls in no stratum")
    return tuple(rows)


def _old_difficulty_rows(ranks, sizes, covered, bins):
    """difficulty_rows as one mask per bin, the code the bincount replaced."""
    rows = []
    for lo, hi in bins:
        inside = (ranks >= lo) & (ranks <= hi)
        cnt = int(inside.sum())
        if cnt:
            rows.append(cset.metrics.DifficultyRow(lo, hi, cnt, float(np.mean(covered[inside])),
                                                   float(np.mean(sizes[inside]))))
        else:
            rows.append(cset.metrics.DifficultyRow(lo, hi, cnt, None, None))
    return tuple(rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return ("DataError", str(exc))


@st.composite
def _ranges(draw, first, end):
    """Disjoint ranges that tile [first, end], in a drawn order, sometimes
    with an empty range past end and sometimes with one range left out."""
    cuts = sorted(c for c in draw(st.sets(st.integers(first, end), max_size=6)) if c > first)
    edges = [first, *cuts, end + 1]
    ranges = [(a, b - 1) for a, b in zip(edges, edges[1:])]
    if draw(st.booleans()):
        ranges.append((end + 2, end + 2 + draw(st.integers(0, 5))))
    if len(ranges) > 1 and draw(st.booleans()):
        del ranges[draw(st.integers(0, len(ranges) - 1))]
    return tuple(draw(st.permutations(ranges)))


@st.composite
def _table_cases(draw):
    """Sizes in [0, K] with 0 and K present, ranks in [1, K] with 1 and K
    present, both skewed low so that high ranges are often empty; covered as
    bools or as 0/1 ints; strata from 0 or from a negative lo."""
    k = draw(st.integers(1, 60))
    n = draw(st.integers(2, 400))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = np.minimum(g.geometric(draw(st.floats(0.05, 0.9)), n) - 1, k)
    ranks = np.minimum(g.geometric(draw(st.floats(0.05, 0.9)), n), k)
    for arr, low in ((sizes, 0), (ranks, 1)):
        arr[g.choice(n, 2, replace=False)] = (low, k)
    covered = g.random(n) < draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        covered = covered.astype(np.int64)
    strata = draw(_ranges(draw(st.sampled_from([0, -1, -4])), k + draw(st.integers(0, 3))))
    bins = draw(_ranges(1, k + draw(st.integers(0, 3))))
    return sizes, ranks, covered, strata, bins


@given(_table_cases())
def test_strata_and_difficulty_rows_match_the_mask_loops(case):
    sizes, ranks, covered, strata, bins = case
    assert _outcome(strata_rows, sizes, covered, strata) == _outcome(
        _old_strata_rows, sizes, covered, strata)
    assert cset.metrics.difficulty_rows(ranks, sizes, covered, bins) == _old_difficulty_rows(
        ranks, sizes, covered, bins)


def test_a_size_in_no_stratum_is_named_in_row_order():
    sizes = np.array([7, 3, 5, 3])
    covered = np.array([True, False, True, True])
    with pytest.raises(DataError, match="^set size 7 falls in no stratum$"):
        strata_rows(sizes, covered, ((5, 5), (0, 2)))


def test_strata_tables_keep_empty_and_negative_ranges():
    sizes = np.array([0, 0, 1, 4])
    covered = np.array([1, 0, 1, 1])
    rows = strata_rows(sizes, covered, ((4, 9), (-3, 1), (2, 3)))
    assert rows == (cset.metrics.StratumRow(4, 9, 1, 1.0),
                    cset.metrics.StratumRow(-3, 1, 3, 2 / 3),
                    cset.metrics.StratumRow(2, 3, 0, None))
    ranks = np.array([1, 3, 3, 1])
    diff = cset.metrics.difficulty_rows(ranks, sizes, covered, ((2, 5), (1, 1), (6, 9)))
    assert diff == (cset.metrics.DifficultyRow(2, 5, 2, 0.5, 0.5),
                    cset.metrics.DifficultyRow(1, 1, 2, 1.0, 2.0),
                    cset.metrics.DifficultyRow(6, 9, 0, None, None))


@pytest.mark.parametrize("strata", [((0, 1), (0, 1), (2, 50)), ((2, 50), (0, 1), (2, 50))])
def test_repeated_strata_are_refused(strata):
    # Counting a row once per copy of its stratum would count it twice.
    sizes, covered = np.array([0, 1, 2]), np.array([True, True, False])
    with pytest.raises(ValueError, match="overlapping strata"):
        strata_rows(sizes, covered, strata)
    with pytest.raises(ValueError, match="overlapping strata"):
        cset.metrics.difficulty_rows(sizes + 1, sizes, covered, strata)
    with pytest.raises(ValueError, match="overlapping strata"):
        cset.TrialProtocol(n_trials=1, cal_size=10, eval_size=10, strata=strata)
