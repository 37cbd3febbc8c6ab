import numpy as np
import pytest

import cset
from cset.conformal import MethodSpec
from cset.synth import SynthSpec, generate, oracle_coverage


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n=0, n_classes=5)
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=1)
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=5, concentration=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=5, corruption="gamma_burst")
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=5, corruption="tail_permute", corruption_param=6)
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=5, corruption="tail_permute", corruption_param=2.5)
    with pytest.raises(ValueError):
        SynthSpec(n=5, n_classes=5, corruption="temperature", corruption_param=0.0)


def test_default_concentration_resolves_to_fraction_of_k():
    spec = SynthSpec(n=3, n_classes=40)
    assert spec.concentration == pytest.approx(2.0)


def test_rows_sum_to_one():
    for corruption, param in (("none", 0.0), ("temperature", 3.0), ("tail_permute", 2)):
        spec = SynthSpec(
            n=200, n_classes=12, corruption=corruption, corruption_param=param, seed=4
        )
        truth, observed = generate(spec)
        np.testing.assert_allclose(truth.scores.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(observed.scores.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(truth.labels, observed.labels)


def test_generator_determinism():
    spec = SynthSpec(n=50, n_classes=7, seed=11)
    t1, o1 = generate(spec)
    t2, o2 = generate(spec)
    np.testing.assert_array_equal(t1.scores, t2.scores)
    np.testing.assert_array_equal(o1.scores, o2.scores)
    np.testing.assert_array_equal(o1.labels, o2.labels)
    t3, o3 = generate(SynthSpec(n=50, n_classes=7, seed=12))
    assert (o3.scores != o1.scores).any()


def test_no_corruption_means_observed_equals_truth():
    spec = SynthSpec(n=30, n_classes=6, seed=2)
    truth, observed = generate(spec)
    np.testing.assert_array_equal(truth.scores, observed.scores)


def test_temperature_corruption_flattens_rows():
    base = SynthSpec(n=100, n_classes=10, seed=3)
    hot = SynthSpec(
        n=100, n_classes=10, seed=3, corruption="temperature", corruption_param=4.0
    )
    truth, _ = generate(base)
    _, observed = generate(hot)
    # same ranking, strictly flatter maxima
    np.testing.assert_array_equal(
        np.argsort(-truth.scores, axis=1, kind="stable"),
        np.argsort(-observed.scores, axis=1, kind="stable"),
    )
    assert (observed.scores.max(axis=1) < truth.scores.max(axis=1)).all()


def test_temperature_one_is_identity():
    a = SynthSpec(n=20, n_classes=5, seed=6)
    b = SynthSpec(n=20, n_classes=5, seed=6, corruption="temperature", corruption_param=1.0)
    _, oa = generate(a)
    _, ob = generate(b)
    np.testing.assert_allclose(oa.scores, ob.scores, atol=1e-12)


def test_tail_permute_preserves_top_m_exactly():
    spec = SynthSpec(
        n=300, n_classes=20, seed=7, corruption="tail_permute", corruption_param=5
    )
    truth, observed = generate(spec)
    order_t = np.argsort(-truth.scores, axis=1, kind="stable")
    top_t = np.take_along_axis(truth.scores, order_t[:, :5], 1)
    order_o = np.argsort(-observed.scores, axis=1, kind="stable")
    top_o = np.take_along_axis(observed.scores, order_o[:, :5], 1)
    np.testing.assert_array_equal(top_t, top_o)
    # the multiset of all values is unchanged, only tail positions move
    np.testing.assert_array_equal(
        np.sort(truth.scores, axis=1), np.sort(observed.scores, axis=1)
    )
    # and the tail actually moved somewhere
    assert (truth.scores != observed.scores).any()


def test_tail_permute_with_top_m_covering_everything_is_identity():
    spec = SynthSpec(
        n=40, n_classes=6, seed=8, corruption="tail_permute", corruption_param=6
    )
    truth, observed = generate(spec)
    np.testing.assert_array_equal(truth.scores, observed.scores)


def test_label_frequency_matches_probabilities():
    # Monte-Carlo self-consistency: frequency of the argmax class tracks its
    # average probability
    spec = SynthSpec(n=100000, n_classes=8, concentration=2.0, seed=9)
    truth, _ = generate(spec)
    top = truth.scores.argmax(axis=1)
    chosen = truth.labels == top
    expected = truth.scores.max(axis=1).mean()
    se = np.sqrt(expected * (1 - expected) / spec.n)
    assert abs(chosen.mean() - expected) <= 3 * se


def test_oracle_coverage_naive_truthful_is_conservative():
    spec = SynthSpec(n=1, n_classes=10, seed=1)
    mspec = MethodSpec("naive", 0.1, randomized=False)
    cov = oracle_coverage(spec, mspec, n_cal=0, n_eval=4000, n_trials=5, seed=0)
    assert cov >= 0.9


def test_oracle_coverage_naive_undercovers_on_tail_noise():
    spec = SynthSpec(
        n=1, n_classes=100, corruption="tail_permute", corruption_param=10, seed=1
    )
    mspec = MethodSpec("naive", 0.1, randomized=True)
    cov = oracle_coverage(spec, mspec, n_cal=0, n_eval=4000, n_trials=5, seed=0)
    assert cov < 0.9


def test_oracle_coverage_conformal_sandwich_any_corruption():
    spec = SynthSpec(
        n=1, n_classes=50, corruption="temperature", corruption_param=3.0, seed=1
    )
    mspec = MethodSpec("aps", 0.1)
    n_trials = 20
    cov = oracle_coverage(spec, mspec, n_cal=500, n_eval=500, n_trials=n_trials, seed=3)
    se = np.sqrt(0.1 * 0.9 / (500 * n_trials))
    assert 0.9 - 4 * se <= cov <= 0.9 + 1 / 501 + 4 * se


def test_oracle_coverage_rejects_fixed_k():
    spec = SynthSpec(n=1, n_classes=5, seed=0)
    with pytest.raises(ValueError):
        oracle_coverage(spec, MethodSpec("fixed_k", 0.1), 10, 10, 2)


@pytest.mark.parametrize("n_eval, n_trials", [(0, 3), (10, 0)])
def test_oracle_coverage_refuses_an_empty_estimate_before_any_data(monkeypatch, n_eval,
                                                                    n_trials):
    def no_data(*_):
        raise AssertionError("data generated before the sizes were checked")

    monkeypatch.setattr("cset.synth.generate", no_data)
    with pytest.raises(ValueError, match="n_eval" if n_eval == 0 else "n_trials"):
        oracle_coverage(SynthSpec(n=10, n_classes=5), MethodSpec("aps", 0.1),
                        n_cal=10, n_eval=n_eval, n_trials=n_trials)


@pytest.mark.parametrize("corruption, param", [("none", 0.0), ("temperature", 2.0),
                                               ("tail_permute", 3)])
def test_generate_matches_the_public_constructor_bit_for_bit(corruption, param):
    truth, observed = generate(SynthSpec(n=300, n_classes=20, corruption=corruption,
                                         corruption_param=param, seed=6))
    for m in (truth, observed):
        public = cset.ScoreMatrix(m.scores, m.labels, m.kind)
        assert m.scores.dtype == public.scores.dtype and m.labels.dtype == public.labels.dtype
        np.testing.assert_array_equal(m.scores.view(np.uint64), public.scores.view(np.uint64))
        np.testing.assert_array_equal(m.labels, public.labels)
        assert not m.scores.flags.writeable and not m.labels.flags.writeable
    if corruption == "none":
        assert observed.scores is truth.scores


def test_corruption_param_needs_a_corruption():
    with pytest.raises(ValueError, match="needs a corruption"):
        SynthSpec(n=5, n_classes=3, corruption_param=2.0)
