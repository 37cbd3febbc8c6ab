"""Evaluation reads its split in sorted row blocks.

The trial loop, oracle_coverage and `cset evaluate` sort the evaluation
rows one block of about ``score_store._BLOCK_CELLS`` cells at a time. Every
result must be the one a single block gives, bit for bit, with blocks of
one row and of three rows (the last one partial), and no caller may hold a
sorted copy of a whole evaluation split.
"""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

import cset
from cset import score_store, trials
from cset.cli import main
from cset.conformal import MethodSpec, as_deterministic
from cset.metrics import evaluate_models
from cset.synth import SynthSpec, oracle_coverage
from cset.trials import MethodPolicy, TrialProtocol, run_synth_trials, run_trials_multi
from cset.tuning import fit_model

K = 10
BLOCK_ROWS = (1, 3)


def _bits(value):
    """A value's exact content: arrays as bytes, floats by their repr."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple((_bits(k), _bits(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _sparse_tied(n, seed):
    """Probability rows of small counts over K classes: most cells are exact
    zeros and most rows tie two or more nonzero cells."""
    g = np.random.default_rng(seed)
    counts = g.integers(0, 4, size=(n, K)) * (g.random((n, K)) < 0.4)
    counts[:, 0] += 1
    labels = np.argmax(counts + g.random(counts.shape), axis=1)
    return cset.ScoreMatrix(counts / counts.sum(axis=1, keepdims=True), labels, "probabilities")


def _logits(n, seed):
    g = np.random.default_rng(seed)
    z = 2.0 * g.normal(size=(n, K))
    return cset.ScoreMatrix(z, np.argmax(z + g.gumbel(size=z.shape), axis=1), "logits")


POLICIES = {
    "naive": MethodPolicy(MethodSpec("naive", 0.1)),
    "aps": MethodPolicy(MethodSpec("aps", 0.1)),
    "raps": MethodPolicy(MethodSpec("raps", 0.1), tune_objective="size"),
    "lac": MethodPolicy(MethodSpec("lac", 0.1)),
    "fixed_k": MethodPolicy(MethodSpec("fixed_k", 0.1)),
    "raps_det": MethodPolicy(MethodSpec("raps", 0.1, 0.05, 2, randomized=False,
                                        boundary_inclusive=True)),
}
SWEEP = {(kreg, lam): MethodPolicy(MethodSpec("raps", 0.1, lam, kreg))
         for kreg in (1, 3) for lam in (0.0, 0.01, 0.5)}


def _blocked(monkeypatch, rows, run):
    """run() with the default blocks, where each split is one block, and with
    blocks of the given row count; also how often trials.sort_scores ran."""
    one = run()
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", rows * K)
    calls = []
    original = trials.sort_scores

    def counted(*args, **kwargs):
        calls.append(kwargs.get("first_row", 0))
        return original(*args, **kwargs)

    monkeypatch.setattr(trials, "sort_scores", counted)
    return one, run(), calls


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("data", ["sparse_tied", "logits"])
def test_trials_give_the_aggregates_of_one_block(monkeypatch, rows, data):
    m = _sparse_tied(900, seed=1) if data == "sparse_tied" else _logits(900, seed=2)
    protocol = TrialProtocol(n_trials=2, cal_size=300, eval_size=301, tune_size=200, seed=3)
    one, many, calls = _blocked(monkeypatch, rows, lambda: run_trials_multi(m, protocol, POLICIES))
    assert _bits(many) == _bits(one)
    # per trial: the tuning and calibration splits whole, the evaluation split in blocks
    per_trial = [0, 0, *range(0, 301, rows)]
    assert calls == per_trial * protocol.n_trials


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_the_sweep_past_n_full_keeps_its_mean_sizes(monkeypatch, rows):
    m = _sparse_tied(700, seed=4)
    protocol = TrialProtocol(n_trials=2, cal_size=300, eval_size=250, tune_size=100, seed=5)
    policies = {**POLICIES, **SWEEP}
    one, many, _ = _blocked(monkeypatch, rows,
                            lambda: run_trials_multi(m, protocol, policies, len(POLICIES)))
    assert _bits(many) == _bits(one)
    assert all(isinstance(many[cell], np.ndarray) for cell in SWEEP)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_synthetic_trials_give_the_aggregates_of_one_block(monkeypatch, rows):
    sspec = SynthSpec(n=1, n_classes=K, corruption="tail_permute", corruption_param=2)
    protocol = TrialProtocol(n_trials=2, cal_size=200, eval_size=250, tune_size=100, seed=6)
    one, many, _ = _blocked(monkeypatch, rows,
                            lambda: run_synth_trials(sspec, protocol, POLICIES))
    assert _bits(many) == _bits(one)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("method", ["naive", "aps", "raps", "lac"])
@pytest.mark.parametrize("randomized", [True, False])
def test_oracle_coverage_is_that_of_one_block(monkeypatch, rows, method, randomized):
    spec = SynthSpec(n=1, n_classes=K, concentration=0.3, corruption="temperature",
                     corruption_param=1.5)
    penalty = 0.02 if method == "raps" else 0.0
    mspec = MethodSpec(method, 0.1, penalty, 2 if method == "raps" else 1, randomized)
    one, many, _ = _blocked(monkeypatch, rows,
                            lambda: oracle_coverage(spec, mspec, 150, 200, 3, seed=7))
    assert repr(many) == repr(one)


def _models(randomized):
    cal = _sparse_tied(400, seed=8)
    ss = cset.sort_scores(cal, seed=9)
    specs = [MethodSpec("naive", 0.1), MethodSpec("aps", 0.1), MethodSpec("raps", 0.1, 0.05, 2),
             MethodSpec("lac", 0.1), MethodSpec("fixed_k", 0.1)]
    models = [fit_model(ss, cal.labels, spec, 10) for spec in specs]
    if randomized:
        return models
    det = [as_deterministic(model) for model in models]
    incl = dataclasses.replace(det[2].spec, boundary_inclusive=True)
    return [*det, dataclasses.replace(det[2], spec=incl)]


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("randomized", [True, False])
def test_evaluate_models_over_blocks_is_one_sorted_scores(monkeypatch, rows, randomized):
    m = _sparse_tied(301, seed=11)
    models = _models(randomized)
    whole = evaluate_models(models, cset.sort_scores(m, seed=12), m.labels, seed=13, n_full=3)
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", rows * K)
    blocks = [cset.sort_scores(block, 12, first_row=lo) for lo, block in m.blocks()]
    assert len(blocks) == -(-301 // rows)
    got = evaluate_models(models, iter(blocks), m.labels, seed=13, n_full=3)
    assert _bits(got) == _bits(whole)


def test_evaluate_models_refuses_labels_of_another_length():
    m = _sparse_tied(30, seed=14)
    blocks = [cset.sort_scores(block, 0, first_row=lo) for lo, block in m.take(slice(20)).blocks()]
    model = fit_model(cset.sort_scores(m, 0), m.labels, MethodSpec("aps", 0.1), 0)
    for labels in (m.labels, m.labels[:10]):
        with pytest.raises(cset.DataError, match="labels must be one integer per row"):
            evaluate_models([model], iter(blocks), labels)


# --- cset evaluate ----------------------------------------------------------

def _write_binary(path, scores, labels, kind):
    n, k = scores.shape
    with open(path, "wb") as fh:
        fh.write(b"CSET1" + struct.pack("<BQQ", 0 if kind == "logits" else 1, n, k))
        fh.write(scores.astype("<f4").tobytes())
        fh.write(labels.astype("<u4").tobytes())


def test_evaluate_refuses_a_model_for_another_k_before_any_block(tmp_path, capsys):
    rng = np.random.default_rng(15)
    z = rng.standard_normal((40, K - 1))
    z[0, 2] = np.nan  # the first block is bad
    _write_binary(tmp_path / "other.bin", z, rng.integers(0, K - 1, 40), "logits")
    model = cset.ConformalModel(MethodSpec("aps", 0.1), 0.9, 100, 0, K)
    cset.save_model(model, str(tmp_path / "model.txt"))
    out = tmp_path / "out"
    code = main(["evaluate", "--model", str(tmp_path / "model.txt"), "--input",
                 str(tmp_path / "other.bin"), "--temperature", "1.0", "--out", str(out)])
    assert code == 1
    assert f"model was calibrated for K={K}, scores have K={K - 1}" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


# --- memory -------------------------------------------------------------------

def _traced_peak(fn) -> int:
    fn()  # once untraced, so that modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SYNTH_K100 = SynthSpec(n=1, n_classes=100, corruption="tail_permute", corruption_param=5)


def test_a_synthetic_trial_peaks_at_generating_its_pool():
    protocol = TrialProtocol(n_trials=1, cal_size=1000, eval_size=10000, seed=2)
    policies = {"raps": MethodPolicy(MethodSpec("raps", 0.1, penalty=0.01, kreg=5)),
                "aps": MethodPolicy(MethodSpec("aps", 0.1)),
                "lac": MethodPolicy(MethodSpec("lac", 0.1)),
                "naive": MethodPolicy(MethodSpec("naive", 0.1))}
    peak = _traced_peak(lambda: run_synth_trials(SYNTH_K100, protocol, policies))
    # Generating the 11,000 x 100 truth and observed pools peaks near 18.5 MB.
    # Sorting the whole evaluation split beside the pool took 16 bytes a cell
    # more, a peak of 27 MB.
    assert peak < 21e6, f"traced peak {peak / 1e6:.1f} MB"


def test_an_oracle_trial_peaks_at_generating_its_pool():
    raps = MethodSpec("raps", 0.1, penalty=0.01, kreg=5)
    peak = _traced_peak(lambda: oracle_coverage(SYNTH_K100, raps, 1000, 10000, 1, seed=3))
    assert peak < 21e6, f"traced peak {peak / 1e6:.1f} MB"


def test_evaluate_memory_is_bounded_by_the_block(tmp_path):
    n, k = 2000, 1000
    rng = np.random.default_rng(0)
    _write_binary(tmp_path / "logits.bin", rng.standard_normal((n, k), dtype=np.float32),
                  rng.integers(0, k, n), "logits")
    model = cset.ConformalModel(MethodSpec("raps", 0.1, penalty=0.01, kreg=5), 0.9, 1000, 0, k)
    cset.save_model(model, str(tmp_path / "model.txt"))
    argv = ["evaluate", "--model", str(tmp_path / "model.txt"), "--input",
            str(tmp_path / "logits.bin"), "--temperature", "1.0", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    one_matrix = n * k * 8  # one float64 n x K array; the joined sort held three
    assert peak < one_matrix / 4, f"traced peak {peak / 2**20:.1f} MB"
