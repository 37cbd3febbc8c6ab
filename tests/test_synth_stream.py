"""Synthetic and oracle trials generate only their tuning and calibration
rows as a matrix and read their evaluation rows from the generator's block
walk. They give the bits of the draw that generated the whole observed
matrix and split it by row slices, for every split boundary and row block
size, and their memory is bounded by the calibration rows and a block, not
by n."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cset import score_store, seeds, synth, trials
from cset.conformal import MethodSpec, calibrate, naive_model, set_sizes
from cset.metrics import evaluate_models
from cset.score_store import DataError, sort_scores
from cset.synth import SynthSpec, generate, oracle_coverage
from cset.trials import MethodPolicy, TrialProtocol, run_synth_trials

K = 10


def _reference_draw(sspec: SynthSpec, protocol: TrialProtocol):
    """run_synth_trials' draw before the stream, kept verbatim as the oracle."""
    n_total = protocol.tune_size + protocol.cal_size + protocol.eval_size
    a, b = protocol.tune_size, protocol.tune_size + protocol.cal_size

    def draw(trial_seed: int):
        data_spec = replace(
            sspec, n=n_total, seed=seeds.child_seed(trial_seed, seeds.SYNTH)
        )
        observed = generate(data_spec)[1]
        tune_m = observed.take(slice(a)) if a > 0 else None
        return tune_m, observed.take(slice(a, b)), observed.take(slice(b, None))

    return draw


def _reference_oracle_trial(
    spec: SynthSpec, mspec: MethodSpec, n_cal: int, n_eval: int, trial_seed: int
) -> float:
    """synth._oracle_trial before the stream, kept verbatim as the oracle."""
    data_spec = replace(spec, n=n_cal + n_eval, seed=seeds.child_seed(trial_seed, seeds.SYNTH))
    observed = generate(data_spec)[1]
    if mspec.method == "naive":
        model = naive_model(mspec.alpha, observed.n_classes, mspec.randomized)
        ev = observed
    else:
        cal, ev = observed.take(slice(n_cal)), observed.take(slice(n_cal, None))
        ss_cal = sort_scores(cal, seeds.child_seed(trial_seed, seeds.SORT, 0))
        model = calibrate(ss_cal, cal.labels, mspec, seed=trial_seed)
    u = seeds.rng(trial_seed, seeds.EVAL_U).random(ev.n) if mspec.randomized else None
    covered = 0
    for lo, block in ev.blocks():
        ss = sort_scores(block, seeds.child_seed(trial_seed, seeds.SORT, 1), first_row=lo)
        sizes = set_sizes(model, ss, None if u is None else u[lo:lo + ss.n])
        covered += np.count_nonzero(ss.label_ranks(block.labels) <= sizes)
    return covered / ev.n


def _block_rows(monkeypatch, rows: int) -> None:
    # One cell short of the next row, so the block size is rounded down.
    monkeypatch.setattr(score_store, "_BLOCK_CELLS", rows * K + K - 1)


SPECS = (SynthSpec(n=1, n_classes=K, corruption="tail_permute", corruption_param=2),
         SynthSpec(n=1, n_classes=K, corruption="temperature", corruption_param=2.0),
         SynthSpec(n=1, n_classes=K))
RAPS = MethodSpec("raps", 0.2, penalty=0.05, kreg=2)
POLICIES = {
    "raps": MethodPolicy(RAPS),
    "aps": MethodPolicy(MethodSpec("aps", 0.2)),
    "aps_det": MethodPolicy(MethodSpec("aps", 0.2, randomized=False)),
    "lac": MethodPolicy(MethodSpec("lac", 0.2)),
    "naive": MethodPolicy(MethodSpec("naive", 0.2)),
}
TUNED = {**POLICIES, "raps_tuned": MethodPolicy(RAPS, tune_objective="size",
                                                 lambda_grid=(0.0, 0.01, 0.1))}


def _same_aggregates(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name in want:
        g, w = got[name], want[name]
        for field in ("coverage", "avg_size", "sscv", "top1", "top5", "penalties", "kregs"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes(), (name, field)
        assert repr((g.size_hist, g.per_stratum, g.per_difficulty)) == \
            repr((w.size_hist, w.per_stratum, w.per_difficulty)), name


# (block rows, tune, cal, eval): with 3-row blocks the calibration split ends
# inside a block (rows 4 and 25) or at a block edge (rows 6, 24 and 4); 1-row
# blocks put every boundary at an edge. Tuning needs 20 rows.
@pytest.mark.parametrize("block_rows, tune, cal, n_eval", [
    (3, 0, 4, 20), (3, 0, 6, 20), (3, 20, 5, 17), (3, 21, 3, 1), (3, 2, 2, 2),
    (1, 0, 5, 9), (1, 20, 4, 9)])
def test_synthetic_trials_match_the_whole_matrix_draw(monkeypatch, block_rows, tune, cal, n_eval):
    _block_rows(monkeypatch, block_rows)
    policies = TUNED if tune >= 20 else POLICIES
    for i, sspec in enumerate(SPECS):
        protocol = TrialProtocol(n_trials=3, cal_size=cal, eval_size=n_eval, tune_size=tune,
                                 seed=10 * block_rows + i)
        want = trials._run_trials(_reference_draw(sspec, protocol), protocol, policies)
        _same_aggregates(run_synth_trials(sspec, protocol, policies), want)


def test_synthetic_trials_match_the_whole_matrix_draw_in_full_blocks():
    # The default block size at K=100 is 655 rows: the calibration split
    # ends inside the second block and the evaluation split spans four.
    sspec = SynthSpec(n=1, n_classes=100, corruption="tail_permute", corruption_param=5)
    for tune, cal in ((0, 1000), (300, 1010)):
        protocol = TrialProtocol(n_trials=2, cal_size=cal, eval_size=2000, tune_size=tune,
                                 seed=tune)
        policies = TUNED if tune else POLICIES
        want = trials._run_trials(_reference_draw(sspec, protocol), protocol, policies)
        _same_aggregates(run_synth_trials(sspec, protocol, policies), want)


ORACLE_METHODS = (RAPS, MethodSpec("aps", 0.2, randomized=False), MethodSpec("lac", 0.2),
                  MethodSpec("naive", 0.2), MethodSpec("naive", 0.2, randomized=False))


# naive evaluates every row, so its calibration/evaluation boundary is row 0.
@pytest.mark.parametrize("block_rows, n_cal, n_eval", [
    (3, 4, 20), (3, 6, 20), (3, 3, 1), (1, 5, 9), (1, 1, 1)])
def test_oracle_trials_match_the_whole_matrix_draw(monkeypatch, block_rows, n_cal, n_eval):
    _block_rows(monkeypatch, block_rows)
    for i, spec in enumerate(SPECS):
        for j, mspec in enumerate(ORACLE_METHODS):
            trial_seed = 100 * i + 10 * j + block_rows
            got = synth._oracle_trial(spec, mspec, n_cal, n_eval, trial_seed)
            want = _reference_oracle_trial(spec, mspec, n_cal, n_eval, trial_seed)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (spec, mspec)


@pytest.mark.parametrize("block_rows, b", [(3, 0), (3, 4), (3, 6), (3, 25), (1, 0), (1, 7)])
def test_the_head_and_the_stream_are_the_rows_of_the_whole_draw(monkeypatch, block_rows, b):
    _block_rows(monkeypatch, block_rows)
    spec = SynthSpec(n=25, n_classes=K, corruption="tail_permute", corruption_param=1, seed=b)
    want = generate(spec)[1]
    if b:
        head = generate(replace(spec, n=b))[1]
        assert head.scores.tobytes() == want.scores[:b].tobytes()
        assert head.labels.tobytes() == want.labels[:b].tobytes()
    rest = synth._stream(spec, b)
    assert rest.n == 25 - b
    seen = []
    for lo, block in rest.blocks():
        assert block.scores.tobytes() == want.scores[b + lo:b + lo + block.n].tobytes()
        assert block.labels.tobytes() == want.labels[b + lo:b + lo + block.n].tobytes()
        assert (rest.labels[lo + block.n:] == -1).all()  # not yet walked
        seen.append((lo, block.n))
    assert [lo for lo, _ in seen] == list(np.cumsum([0] + [n for _, n in seen])[:-1])
    assert sum(n for _, n in seen) == 25 - b
    assert rest.labels.tobytes() == want.labels[b:].tobytes()
    # A second walk, as ScoreMatrix.blocks() gives, yields the same blocks.
    again = [(lo, block.scores.tobytes(), block.labels.tobytes()) for lo, block in rest.blocks()]
    assert [lo for lo, *_ in again] == [lo for lo, _ in seen]
    assert b"".join(s for _, s, _ in again) == want.scores[b:].tobytes()
    assert b"".join(y for *_, y in again) == want.labels[b:].tobytes()


@pytest.mark.parametrize("block_rows", [1, 3])
def test_the_observed_matrix_alone_is_generates_observed(monkeypatch, block_rows):
    _block_rows(monkeypatch, block_rows)
    for spec in SPECS + (SynthSpec(n=1, n_classes=K, corruption="tail_permute",
                                   corruption_param=K - 1),):
        spec = replace(spec, n=26, seed=block_rows)
        got, want = synth._observed(spec), generate(spec)[1]
        assert got.scores.tobytes() == want.scores.tobytes(), spec
        assert got.labels.tobytes() == want.labels.tobytes(), spec


def test_reading_the_stream_labels_before_its_blocks_is_a_data_error():
    spec = SynthSpec(n=50, n_classes=K, seed=4)
    rest = synth._stream(spec, 20)
    ss = sort_scores(generate(spec)[1].take(slice(20, None)))
    with pytest.raises(DataError, match="label out of range"):
        evaluate_models([naive_model(0.2, K, True)], ss, rest.labels)


def _traced_peak(fn) -> int:
    fn()  # once untraced, so that modules numpy imports on first use are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_trial_holds_its_calibration_rows_and_a_block_not_its_evaluation_rows():
    sspec = SynthSpec(n=1, n_classes=100, corruption="tail_permute", corruption_param=5)
    raps = MethodSpec("raps", 0.1, penalty=0.01, kreg=5)
    policies = {"raps": MethodPolicy(raps), "aps": MethodPolicy(MethodSpec("aps", 0.1)),
                "lac": MethodPolicy(MethodSpec("lac", 0.1)),
                "naive": MethodPolicy(MethodSpec("naive", 0.1))}
    peaks = {}
    for n_eval in (10_000, 40_000):
        protocol = TrialProtocol(n_trials=1, cal_size=1000, eval_size=n_eval, seed=2)
        peaks["trial", n_eval] = _traced_peak(lambda: run_synth_trials(sspec, protocol, policies))
        peaks["oracle", n_eval] = _traced_peak(
            lambda: oracle_coverage(sspec, raps, 1000, n_eval, 1, seed=3))
    # The 40,000 evaluation rows alone would take 32 MB as one matrix; what
    # grows with them is a few n-length vectors (sizes, ranks, u).
    for key, peak in peaks.items():
        assert peak < 12e6, f"{key}: traced peak {peak / 1e6:.1f} MB"
    for kind in ("trial", "oracle"):
        assert peaks[kind, 40_000] < 1.5 * peaks[kind, 10_000], \
            {key: round(peak / 1e6, 1) for key, peak in peaks.items()}


def test_the_calibration_rows_and_their_sort_are_freed_before_the_evaluation_walk():
    # At 1,000 calibration rows of K = 100 the rows take 0.8 MB, and their
    # sort (sorted and cumsum) 1.6 MB more. Kept through the walk, beside
    # its blocks, they put one oracle trial at 6.9 MB, one synthetic trial
    # at 7.4 MB, and one with 1,000 tuning rows and a tuned raps at 9.9 MB;
    # freed first, these peak at 4.5, 5.0 and 5.9 MB.
    sspec = SynthSpec(n=1, n_classes=100, corruption="tail_permute", corruption_param=5)
    raps = MethodSpec("raps", 0.1, penalty=0.01, kreg=5)
    policies = {"raps": MethodPolicy(raps), "aps": MethodPolicy(MethodSpec("aps", 0.1)),
                "lac": MethodPolicy(MethodSpec("lac", 0.1)),
                "naive": MethodPolicy(MethodSpec("naive", 0.1))}
    tuned = {**policies, "raps_tuned": MethodPolicy(raps, tune_objective="size")}
    plain = TrialProtocol(n_trials=1, cal_size=1000, eval_size=10_000, seed=2)
    tuning = TrialProtocol(n_trials=1, cal_size=1000, eval_size=10_000, tune_size=1000, seed=2)
    peaks = {
        "oracle": _traced_peak(lambda: oracle_coverage(sspec, raps, 1000, 10_000, 1, seed=3)),
        "trial": _traced_peak(lambda: run_synth_trials(sspec, plain, policies)),
        "tuned trial": _traced_peak(lambda: run_synth_trials(sspec, tuning, tuned)),
    }
    bounds = {"oracle": 5.5e6, "trial": 6e6, "tuned trial": 7.5e6}
    for key, peak in peaks.items():
        assert peak < bounds[key], f"{key}: traced peak {peak / 1e6:.1f} MB"
