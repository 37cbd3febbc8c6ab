"""Rank-major sizing, and one count for models that share a threshold.

The sizer step builds each group's score base with one rank a row and
counts along the ranks. Within a group, models at one threshold and one cut
whose penalty is zero on every rank up to that cut score exactly as aps
there, so one count serves them all; each still adds its own
boundary-inclusive +1. These tests pin, on hand rows, which models share
and that the sharing never changes a size; tests/test_conformal.py checks a
calibrated sweep against the per-model formula on blocks of every size and
on sorts narrower than K.
"""

import numpy as np
import pytest

import cset
import cset.conformal
from cset.conformal import ConformalModel, MethodSpec, set_sizes_many
from cset.score_store import ScoreMatrix, sort_scores

K = 5
# Sorted rows (K = 5) whose block lower bounds are 0, .2, .4, .6 and .8 by rank.
HAND_ROWS = np.array([
    [0.2, 0.2, 0.2, 0.2, 0.2],
    [0.5, 0.3, 0.1, 0.05, 0.05],
    [0.45, 0.3, 0.15, 0.05, 0.05],
    [0.4, 0.31, 0.19, 0.05, 0.05],
])
TAU = 0.72
APS = MethodSpec("aps", 0.1, randomized=False)
# A penalty inside the aps cut that still leaves the cut where it is,
LIGHT = MethodSpec("raps", 0.1, penalty=0.02, kreg=1, randomized=False)
# and one that is zero up to a shorter cut.
HEAVY = MethodSpec("raps", 0.1, penalty=1.0, kreg=2, randomized=False)


class _CountingNumpy:
    """numpy, with each np.less_equal call counted: one per count computed."""

    def __init__(self):
        self.compares = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def less_equal(self, *args, **kwargs):
        self.compares += 1
        return np.less_equal(*args, **kwargs)


@pytest.fixture
def compares(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(cset.conformal, "np", counting)
    return counting


def _hand():
    m = ScoreMatrix(HAND_ROWS, np.zeros(len(HAND_ROWS), dtype=int), "probabilities")
    return sort_scores(m, seed=0)


def _cut(ss, spec, tau):
    """The sizer's cut of a model on one block: ranks whose block lower
    bound plus penalty is at most tau."""
    lower = np.concatenate(([0.0], ss.cumsum[:, :-1].min(axis=0)))
    pen = spec.penalty * np.maximum(np.arange(1, K + 1) - spec.kreg, 0)
    return int(np.searchsorted(lower + pen, tau, "right")), pen


def test_the_hand_rows_cut_where_the_fixture_says():
    ss = _hand()
    aps_cut, _ = _cut(ss, APS, TAU)
    light_cut, light_pen = _cut(ss, LIGHT, TAU)
    heavy_cut, heavy_pen = _cut(ss, HEAVY, TAU)
    assert aps_cut == light_cut == 4 and light_pen[light_cut - 1] > 0
    assert heavy_cut == 2 and heavy_pen[heavy_cut - 1] == 0


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["aps_first", "raps_first"])
def test_a_penalty_inside_the_cut_gets_its_own_count(compares, order):
    # same threshold, same cut, but raps pays 0.02 at rank 2: row 4's
    # 0.71 is in the aps set and its 0.73 is not
    models = [ConformalModel(spec, TAU, 10, 0, K) for spec in (APS, LIGHT)]
    models = [models[i] for i in order]
    got = dict(zip(order, set_sizes_many(models, _hand())))
    np.testing.assert_array_equal(got[0], [3, 1, 1, 2])
    np.testing.assert_array_equal(got[1], [3, 1, 1, 1])
    assert compares.compares == 2


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["aps_first", "raps_first"])
def test_models_with_zero_penalty_share_only_at_one_cut(compares, order):
    # raps is zero up to its cut of 2 but aps counts 4 ranks: row 1 differs
    models = [ConformalModel(spec, TAU, 10, 0, K) for spec in (APS, HEAVY)]
    models = [models[i] for i in order]
    got = dict(zip(order, set_sizes_many(models, _hand())))
    np.testing.assert_array_equal(got[0], [3, 1, 1, 2])
    np.testing.assert_array_equal(got[1], [2, 1, 1, 2])
    assert compares.compares == 2


def test_a_boundary_inclusive_twin_shares_the_count_and_adds_its_own_one(compares):
    twin = MethodSpec("aps", 0.1, randomized=False, boundary_inclusive=True)
    heavy_twin = MethodSpec("raps", 0.1, penalty=1e-3, kreg=K, randomized=False,
                            boundary_inclusive=True)
    models = [ConformalModel(spec, TAU, 10, 0, K) for spec in (twin, APS, twin, heavy_twin, APS)]
    got = set_sizes_many(models, _hand())
    for sizes, want in zip(got, ([4, 2, 2, 3], [3, 1, 1, 2], [4, 2, 2, 3], [4, 2, 2, 3],
                                 [3, 1, 1, 2])):
        np.testing.assert_array_equal(sizes, want)
    assert compares.compares == 1  # a zero penalty over all K ranks is aps too


def test_groups_at_one_threshold_count_apart(compares):
    # lac, deterministic aps and randomized aps at one threshold read three
    # different bases, so none of them takes another's count
    ss = _hand()
    u = np.array([0.0, 1.0, 0.5, 0.25])
    specs = (MethodSpec("lac", 0.1), APS, MethodSpec("aps", 0.1),
             MethodSpec("raps", 0.1, penalty=0.5, kreg=3), MethodSpec("lac", 0.1), APS)
    models = [ConformalModel(spec, 0.6, 10, 0, K) for spec in specs]
    got = set_sizes_many(models, ss, u)
    assert compares.compares == 3
    assert len({tuple(sizes) for sizes in got}) == 3
    for model, sizes in zip(models, got):
        np.testing.assert_array_equal(sizes, set_sizes_many([model], ss, u)[0], err_msg=repr(model.spec))
