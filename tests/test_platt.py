import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cset
from cset import platt
from cset.platt import DEFAULT_BOUNDS, DEFAULT_TOL
from cset.score_store import _BLOCK_CELLS, ScoreMatrix
from cset.seeds import rng

from conftest import logit_matrices


def test_nll_uniform_pair():
    m = ScoreMatrix(np.array([[0.0, 0.0]]), np.array([0]), "logits")
    assert cset.nll(m, 1.0) == pytest.approx(math.log(2.0), abs=1e-9)


def test_nll_hand_example():
    m = ScoreMatrix(np.array([[math.log(3.0), 0.0]]), np.array([0]), "logits")
    assert cset.nll(m, 1.0) == pytest.approx(-math.log(0.75), abs=1e-9)


def test_nll_shift_invariance():
    g = np.random.default_rng(0)
    z = g.normal(size=(40, 7))
    labels = g.integers(0, 7, size=40)
    a = cset.nll(ScoreMatrix(z, labels, "logits"), 1.7)
    b = cset.nll(ScoreMatrix(z + 123.0, labels, "logits"), 1.7)
    assert a == pytest.approx(b, abs=1e-12)


def test_nll_survives_extreme_logits():
    m = ScoreMatrix(np.array([[800.0, -800.0]]), np.array([0]), "logits")
    assert cset.nll(m, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(cset.nll(m, 0.05))


def planted_matrix(seed, t_star, n=50000, k=10, spread=3.0):
    g = rng(seed, 99)
    z = g.normal(0.0, spread, size=(n, k))
    p = cset.softmax(ScoreMatrix(z, np.zeros(n, dtype=int), "logits"), t_star)
    cum = np.cumsum(p.scores, axis=1)
    labels = (g.random((n, 1)) > cum).sum(axis=1)
    return ScoreMatrix(z, labels, "logits")


def test_fit_never_hurts_objective():
    m = planted_matrix(0, 2.5, n=3000)
    fit = cset.fit_temperature(m)
    assert fit.nll_after <= fit.nll_before + 1e-12


def test_fit_is_deterministic():
    m = planted_matrix(1, 2.5, n=2000)
    a = cset.fit_temperature(m)
    b = cset.fit_temperature(m)
    assert a == b


def test_fit_recovers_planted_temperature_single_seed():
    m = planted_matrix(2, 2.5)
    fit = cset.fit_temperature(m)
    assert abs(fit.temperature - 2.5) < 0.1


def test_fit_recovers_unit_temperature():
    m = planted_matrix(3, 1.0)
    fit = cset.fit_temperature(m)
    assert abs(fit.temperature - 1.0) < 0.05


def test_fit_matches_grid_oracle_within_one_step():
    m = planted_matrix(4, 2.5, n=8000)
    fit = cset.fit_temperature(m)
    grid = np.linspace(0.05, 20.0, 2000)
    vals = [cset.nll(m, t) for t in grid]
    best = grid[int(np.argmin(vals))]
    step = grid[1] - grid[0]
    assert abs(fit.temperature - best) <= step


def test_fit_respects_bounds():
    m = planted_matrix(5, 2.5, n=2000)
    fit = cset.fit_temperature(m, bounds=(3.0, 5.0))
    assert 3.0 <= fit.temperature <= 5.0


def test_fit_rejects_probability_matrices():
    m = ScoreMatrix(np.array([[0.6, 0.4]]), np.array([0]), "probabilities")
    with pytest.raises(ValueError):
        cset.fit_temperature(m)


def test_fit_on_already_calibrated_data_stays_near_one():
    m = planted_matrix(6, 1.0)
    fit = cset.fit_temperature(m)
    # snap-to-1 guard: exactly 1.0 when 1.0 is at least as good as the bracket midpoint
    assert fit.temperature == pytest.approx(1.0, abs=0.05)


# --- the fit against the one-shot formula and search it replaced -----------

def _reference_nll(m, temperature):
    z = (m.scores - m.scores.max(axis=1, keepdims=True)) / temperature
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(m.n), m.labels]
    return float(np.mean(lse - picked))


def _reference_fit(m, bounds=DEFAULT_BOUNDS, tol=DEFAULT_TOL):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = bounds
    base = _reference_nll(m, 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _reference_nll(m, c), _reference_nll(m, d)
    iterations = 0
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _reference_nll(m, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _reference_nll(m, d)
        iterations += 1
    t = 0.5 * (a + b)
    best = _reference_nll(m, t)
    if lo <= 1.0 <= hi and base < best:
        t, best = 1.0, base
    return cset.TemperatureFit(t, base, best, iterations)


@given(logit_matrices())
def test_nll_matches_one_shot_formula(m):
    for t in (0.05, 0.1, 0.5, 1.0, 1.7, 2.5, 7.0, 20.0):
        assert cset.nll(m, t) == _reference_nll(m, t)


BRACKETS = [(DEFAULT_BOUNDS, DEFAULT_TOL), ((0.2, 3.0), 1e-6), ((3.0, 5.0), 1e-3)]


@given(logit_matrices(), st.sampled_from(BRACKETS))
def test_fit_matches_reference_search_field_by_field(m, bracket):
    fit = cset.fit_temperature(m, *bracket)
    ref = _reference_fit(m, *bracket)
    assert fit.temperature == ref.temperature
    assert fit.nll_before == ref.nll_before
    assert fit.nll_after == ref.nll_after
    assert fit.iterations == ref.iterations


def test_nll_evaluation_blocks_match_one_shot_formula():
    # more rows than one evaluation block, and a last block that is not full
    k = 7
    n = 2 * (_BLOCK_CELLS // k) + 5
    g = np.random.default_rng(11)
    m = ScoreMatrix(g.normal(0.0, 3.0, size=(n, k)), g.integers(0, k, n), "logits")
    assert cset.fit_temperature(m) == _reference_fit(m)


# --- the points the search skips -------------------------------------------

def _reference_fit_to_float(m, bounds, tol):
    """_reference_fit with the second stopping rule of fit_temperature, so
    that it also returns for a tol below the float spacing."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = bounds
    base = _reference_nll(m, 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _reference_nll(m, c), _reference_nll(m, d)
    iterations = 0
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _reference_nll(m, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _reference_nll(m, d)
        iterations += 1
    t = 0.5 * (a + b)
    best = _reference_nll(m, t)
    if lo <= 1.0 <= hi and base < best:
        t, best = 1.0, base
    return cset.TemperatureFit(t, base, best, iterations)


def _assert_same_fit(fit, ref):
    assert fit.temperature == ref.temperature
    assert fit.nll_before == ref.nll_before
    assert fit.nll_after == ref.nll_after
    assert fit.iterations == ref.iterations


def test_search_evaluates_fewer_temperatures_than_the_reference(monkeypatch):
    evaluated, reference = [], []
    nll_at, reference_nll = platt._nll_at, _reference_nll

    def counted_nll_at(m):
        at = nll_at(m)

        def counted(temperature, *args, **kwargs):
            evaluated.append(temperature)
            return at(temperature, *args, **kwargs)

        return counted

    def counted_reference_nll(m, temperature):
        reference.append(temperature)
        return reference_nll(m, temperature)

    monkeypatch.setattr(platt, "_nll_at", counted_nll_at)
    monkeypatch.setitem(globals(), "_reference_nll", counted_reference_nll)
    m = planted_matrix(7, 0.5, n=4000)
    _assert_same_fit(cset.fit_temperature(m), _reference_fit(m))
    assert len(reference) == 30
    assert len(evaluated) <= 20


@given(logit_matrices(), st.sampled_from([DEFAULT_BOUNDS, (1e-3, 1e3), (1.5, 4.0)]))
def test_fit_to_float_resolution_matches_reference_field_by_field(m, bounds):
    # (1.5, 4.0) does not hold 1.0, whose slope starts the search
    _assert_same_fit(cset.fit_temperature(m, bounds, 1e-300),
                     _reference_fit_to_float(m, bounds, 1e-300))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-300])
def test_fit_on_a_flat_nll_matches_reference(tol):
    # every logit of a row equal: the nll is log K at every T, its slope 0
    g = np.random.default_rng(3)
    z = np.repeat(g.normal(0.0, 5.0, size=(60, 1)), 6, axis=1)
    m = ScoreMatrix(z, g.integers(0, 6, 60), "logits")
    fit = cset.fit_temperature(m, tol=tol)
    _assert_same_fit(fit, _reference_fit_to_float(m, DEFAULT_BOUNDS, tol))
    assert fit.nll_after == pytest.approx(math.log(6.0))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-300])
def test_fit_on_separated_labels_matches_reference(tol):
    # labels on the row max: the nll falls all the way down to t_lo
    g = np.random.default_rng(4)
    z = g.normal(0.0, 2.0, size=(80, 7))
    m = ScoreMatrix(z, z.argmax(axis=1), "logits")
    fit = cset.fit_temperature(m, tol=tol)
    _assert_same_fit(fit, _reference_fit_to_float(m, DEFAULT_BOUNDS, tol))
    assert fit.temperature == pytest.approx(DEFAULT_BOUNDS[0], abs=1e-3)


def test_fit_holds_one_shifted_copy_of_the_logits_at_a_time():
    # the block buffers are small beside a copy of these 4000 x 500 logits
    m = planted_matrix(8, 2.0, n=4000, k=500)
    copy_mb = m.scores.nbytes / 1e6
    tracemalloc.start()
    try:
        cset.fit_temperature(m)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 1.5 * copy_mb


# --- stopping rule and input checks ----------------------------------------

def _small_logits(seed=0):
    g = np.random.default_rng(seed)
    return ScoreMatrix(g.normal(size=(50, 5)), g.integers(0, 5, 50), "logits")


@pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, (1.0, 2.0), (1e-3, 1e3)])
def test_fit_returns_when_tol_is_below_float_spacing(bounds):
    m = _small_logits()
    fit = cset.fit_temperature(m, bounds=bounds, tol=1e-300)
    assert fit.iterations <= 100
    assert bounds[0] <= fit.temperature <= bounds[1]
    # the search went to float resolution: it lands within the default fit's tol
    if bounds == DEFAULT_BOUNDS:
        assert abs(fit.temperature - cset.fit_temperature(m).temperature) < DEFAULT_TOL


def test_fit_returns_when_optimum_sits_on_lower_bound():
    # perfectly separated labels: the nll falls all the way down to t_lo
    g = np.random.default_rng(1)
    z = g.normal(size=(50, 5))
    fit = cset.fit_temperature(ScoreMatrix(z, z.argmax(axis=1), "logits"), tol=1e-300)
    assert fit.iterations <= 100
    assert fit.temperature == pytest.approx(DEFAULT_BOUNDS[0])


def test_fit_on_bracket_one_float_wide_does_not_search():
    m = _small_logits()
    fit = cset.fit_temperature(m, bounds=(1.0, math.nextafter(1.0, 2.0)), tol=1e-300)
    assert fit.iterations == 0


@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_nll_and_softmax_reject_bad_temperatures(t):
    m = _small_logits()
    with pytest.raises(ValueError, match="positive and finite"):
        cset.nll(m, t)
    with pytest.raises(ValueError, match="positive and finite"):
        cset.softmax(m, t)


@pytest.mark.parametrize("bounds", [(0.05, math.inf), (math.nan, 2.0), (0.05, math.nan)])
def test_fit_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        cset.fit_temperature(_small_logits(), bounds=bounds)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-4])
def test_fit_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        cset.fit_temperature(_small_logits(), tol=tol)


def test_fit_rejects_bracket_whose_midpoint_overflows():
    with pytest.raises(ValueError, match="half the largest float"):
        cset.fit_temperature(_small_logits(), bounds=(5e-324, 1.7e308), tol=5e-324)


def test_fit_on_the_widest_accepted_bracket_stays_finite():
    # labels on the smallest logit: the nll falls all the way up to t_hi, so
    # the search ends with both ends of the bracket next to it
    g = np.random.default_rng(2)
    z = g.normal(size=(50, 5))
    t_hi = 8.9e307
    fit = cset.fit_temperature(
        ScoreMatrix(z, z.argmin(axis=1), "logits"), bounds=(5e-324, t_hi), tol=5e-324
    )
    assert math.isfinite(fit.temperature)
    assert fit.temperature == pytest.approx(t_hi)
