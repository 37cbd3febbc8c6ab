"""synth.generate gives the same bytes as the whole-matrix generator it
replaced, for every corruption, on shapes from 2 to 1000 classes, on
concentrations whose rows clip (and so tie), and with any row block size."""

import tracemalloc

import numpy as np
import pytest

import cset
from cset import score_store, seeds, synth
from cset.conformal import MethodSpec
from cset.score_store import ScoreMatrix
from cset.synth import SynthSpec, generate, oracle_coverage
from cset.trials import run_synth_trials

CONCENTRATIONS = (0.0, 1e-3, 1.0, 50.0)  # 0.0 means the 0.05 * K default


def _reference(spec: SynthSpec) -> tuple[ScoreMatrix, ScoreMatrix]:
    """The whole-matrix generate body, kept verbatim as the oracle."""
    n, k = spec.n, spec.n_classes
    gen = seeds.rng(spec.seed, seeds.SYNTH)
    g = gen.gamma(spec.concentration / k, 1.0, size=(n, k))
    np.clip(g, 1e-290, None, out=g)  # keep every class mass strictly positive
    p = g / g.sum(axis=1, keepdims=True)

    r = seeds.rng(spec.seed, seeds.LABELS).random(n)
    labels = np.minimum((np.cumsum(p, axis=1) < r[:, None]).sum(axis=1), k - 1)

    # Both arrays are fresh and valid, so they are wrapped without a copy;
    # with no corruption, truth and observed share one read-only array.
    observed = _reference_corrupt(p, spec)
    return (ScoreMatrix._trusted(p, labels, "probabilities"),
            ScoreMatrix._trusted(observed, labels, "probabilities"))


def _reference_corrupt(p: np.ndarray, spec: SynthSpec) -> np.ndarray:
    if spec.corruption == "none":
        return p
    if spec.corruption == "temperature":
        z = np.log(p) / spec.corruption_param
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)
    # tail_permute: shuffle the values sitting at ranks > top_m of each row
    top_m = int(spec.corruption_param)
    n, k = p.shape
    if top_m >= k - 1:
        return p
    order = np.argsort(-p, axis=1, kind="stable")
    tail = order[:, top_m:]  # class indices at the tail ranks
    keys = seeds.rng(spec.seed, seeds.SYNTH, 1).random(tail.shape)
    shuffled = np.take_along_axis(tail, np.argsort(keys, axis=1), axis=1)
    out = p.copy()
    vals = np.take_along_axis(p, tail, axis=1)
    np.put_along_axis(out, shuffled, vals, axis=1)
    return out


def _assert_same_bytes(spec: SynthSpec) -> None:
    got, want = generate(spec), _reference(spec)
    for name, g, w in (("truth", got[0].scores, want[0].scores),
                       ("observed", got[1].scores, want[1].scores),
                       ("labels", got[1].labels, want[1].labels),
                       ("truth labels", got[0].labels, want[0].labels)):
        assert g.dtype == w.dtype and g.shape == w.shape, f"{name} of {spec}"
        assert g.tobytes() == w.tobytes(), f"{name} differ for {spec}"
        assert not g.flags.writeable, f"{name} of {spec} is writeable"


def _params(corruption: str, k: int) -> list[float]:
    if corruption == "none":
        return [0.0]
    if corruption == "temperature":
        return [0.5, 3.0]
    return sorted({m for m in (0, 1, 10, k - 2, k - 1, k) if 0 <= m <= k})


@pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
@pytest.mark.parametrize("corruption", ["none", "temperature", "tail_permute"])
def test_generate_matches_the_whole_matrix_generator(corruption, k):
    # Two full row blocks and a partial third, whatever K is.
    n = 2 * max(1, score_store._BLOCK_CELLS // k) + 7
    for c_i, concentration in enumerate(CONCENTRATIONS):
        for param in _params(corruption, k):
            _assert_same_bytes(SynthSpec(n=n, n_classes=k, concentration=concentration,
                                         corruption=corruption, corruption_param=param,
                                         seed=100 * k + 10 * c_i + int(param)))


@pytest.mark.parametrize("block_rows, n", [(1, 5), (3, 11)])
@pytest.mark.parametrize("corruption, param", [("none", 0.0), ("temperature", 0.7),
                                               ("tail_permute", 0), ("tail_permute", 1),
                                               ("tail_permute", 4)])
def test_any_row_block_gives_the_same_bytes(monkeypatch, block_rows, n, corruption, param):
    for k, concentration in ((10, 0.0), (10, 1e-3), (1000, 1.0)):
        # One cell short of the next row, so the block size is rounded down.
        monkeypatch.setattr(score_store, "_BLOCK_CELLS", block_rows * k + k - 1)
        _assert_same_bytes(SynthSpec(n=n, n_classes=k, concentration=concentration,
                                     corruption=corruption, corruption_param=param, seed=k))


def test_the_grid_holds_rows_that_tie_beside_rows_that_do_not():
    # tail_permute sorts a tied row and a tie-free row by different rules, so
    # the grid checks both rules and their mixing only if one block holds
    # both kinds of row: at K=100 and concentration 1.0 a few rows clip twice.
    k = 100
    truth, _ = generate(SynthSpec(n=score_store._BLOCK_CELLS // k, n_classes=k,
                                  concentration=1.0, seed=100 * k + 20))
    s = np.sort(truth.scores, axis=1)
    tied = (s[:, 1:] == s[:, :-1]).any(axis=1)
    assert 0 < tied.sum() < len(tied)


@pytest.mark.parametrize("top_m", [0, 1, 2, 3, 4])
def test_rows_that_tie_anywhere_or_hold_a_nan_keep_the_stable_order(top_m):
    # The grid's ties are clipped cells, which tie at the least value of a
    # row. These rows tie elsewhere, hold a NaN or signed zeros, or are all
    # one value, and share one block with rows of distinct values.
    p = np.random.default_rng(0).random((10, 6))
    p[1, [2, 4]] = p[1, 0]  # a tie above the least value
    p[2] = 0.25
    p[3, 5] = np.nan
    p[4, [1, 3]] = 2.0  # a tie at the top
    p[5, [0, 4]] = 0.0, -0.0
    p[6, [0, 5]] = np.nan
    spec = SynthSpec(n=10, n_classes=6, corruption="tail_permute", corruption_param=top_m,
                     seed=9)
    out = np.empty_like(p)
    synth._corrupt(p, spec, seeds.rng(9, seeds.SYNTH, 1), out)
    assert out.tobytes() == _reference_corrupt(p, spec).tobytes()


def _traced_peak(fn) -> int:
    fn()  # once untraced, so that modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_holds_its_two_results_and_one_block():
    n, k = 4000, 100
    spec = SynthSpec(n=n, n_classes=k, corruption="tail_permute", corruption_param=5, seed=1)
    peak = _traced_peak(lambda: generate(spec))
    # Truth and observed take 16 bytes a cell, labels a little more; one
    # block's work is a few arrays of _BLOCK_CELLS cells, about 1.3 MB each
    # in 8-byte cells here. The whole-matrix generator peaked at about 52.
    assert peak / (n * k) < 24, f"traced peak {peak / (n * k):.1f} bytes per cell"


SYNTH_K100 = SynthSpec(n=1, n_classes=100, corruption="tail_permute", corruption_param=5)


def test_a_synthetic_trial_holds_the_observed_pool_and_no_copy_of_it():
    protocol = cset.TrialProtocol(n_trials=1, cal_size=1000, eval_size=10000, seed=2)
    policies = {"raps": cset.MethodPolicy(MethodSpec("raps", 0.1, penalty=0.01, kreg=5)),
                "aps": cset.MethodPolicy(MethodSpec("aps", 0.1)),
                "lac": cset.MethodPolicy(MethodSpec("lac", 0.1)),
                "naive": cset.MethodPolicy(MethodSpec("naive", 0.1))}
    peak = _traced_peak(lambda: run_synth_trials(SYNTH_K100, protocol, policies))
    # The 11,000 x 100 pool is 8.8 MB; with the truth matrix or the split
    # copies beside it the peak was 61 MB.
    assert peak < 35e6, f"traced peak {peak / 1e6:.1f} MB"


def test_an_oracle_trial_holds_the_observed_pool_and_no_copy_of_it():
    raps = MethodSpec("raps", 0.1, penalty=0.01, kreg=5)
    peak = _traced_peak(lambda: oracle_coverage(SYNTH_K100, raps, 1000, 10000, 1, seed=3))
    assert peak < 35e6, f"traced peak {peak / 1e6:.1f} MB"
