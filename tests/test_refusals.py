"""Every refusal that no other test reaches: each case gives the error it
raises (or, through the CLI, the exit code: 1 for bad data, 2 for usage)
and a fragment of its message."""

import math

import numpy as np
import pytest

from cset.cli import main
from cset.conformal import (
    ConformalModel,
    MethodSpec,
    calibrate,
    conformal_quantile,
    load_model,
    naive_model,
    order_stat_index,
    set_size_given_u,
)
from cset.metrics import coverage_and_size, evaluate_models, sscv_from_arrays
from cset.score_store import (
    DataError,
    ScoreMatrix,
    SplitSpec,
    _LabelCells,
    load_scores,
    save_scores,
    softmax,
    sort_scores,
)
from cset.synth import SynthSpec, generate, oracle_coverage
from cset.trials import MethodPolicy, TrialProtocol, run_trials_multi
from cset.tuning import tune_for_size

PROBS = ScoreMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]), np.array([0, 1]), "probabilities")
LOGITS = ScoreMatrix(np.arange(30.0).reshape(10, 3) % 7, np.arange(10) % 3, "logits")
APS = MethodSpec("aps", 0.1)
FIXED_K = MethodSpec("fixed_k", 0.1)


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _experiment(*flags):
    return ["experiment", "--cal-size", "10", "--eval-size", "10", *flags]


def _configured(tmp_path, text):
    return ["--config", _file(tmp_path, "config.json", text), "calibrate", "--input", "x.csv",
            "--method", "aps", "--out", str(tmp_path / "out")]


def _cells_of_other_labels(tmp_path):
    ss = sort_scores(PROBS)
    cells = _LabelCells(PROBS.labels, *ss.label_cells(PROBS.labels), 3)
    cells.label_cells(np.array([1, 1]))


# (id, the refused call or the CLI argv it builds, error type or exit code, message fragment)
CASES = [
    # cli
    ("cli --methods unknown", lambda t: _experiment("--methods", "aps,bogus"), 2,
     "unknown method 'bogus'"),
    ("cli --methods empty", lambda t: _experiment("--methods", ","), 2, "empty method list"),
    ("cli --config missing", lambda t: ["--config", str(t / "none.json"), "calibrate"], 1,
     "cannot read config"),
    ("cli --config bad JSON", lambda t: _configured(t, "{"), 1, "malformed config"),
    ("cli --config JSON list", lambda t: _configured(t, "[]"), 1, "must hold a JSON object"),
    # conformal
    ("ConformalModel K < 2", lambda t: ConformalModel(APS, 0.5, 10, 0, 1), ValueError,
     "at least 2 classes"),
    ("fixed_k without k_star", lambda t: ConformalModel(FIXED_K, math.inf, 10, 0, 3, mix_prob=0.5),
     ValueError, "requires k_star and mix_prob"),
    ("fixed_k without mix_prob", lambda t: ConformalModel(FIXED_K, math.inf, 10, 0, 3, k_star=2),
     ValueError, "requires k_star and mix_prob"),
    ("fixed_k k_star out of range",
     lambda t: ConformalModel(FIXED_K, math.inf, 10, 0, 3, k_star=4, mix_prob=0.5), ValueError,
     "k_star 4 out of range [1, 3]"),
    ("fixed_k mix_prob out of range",
     lambda t: ConformalModel(FIXED_K, math.inf, 10, 0, 3, k_star=2, mix_prob=1.5), ValueError,
     "mix_prob must be in [0, 1]"),
    ("order_stat_index n < 0", lambda t: order_stat_index(-1, 0.1), ValueError,
     "n must be nonnegative"),
    ("order_stat_index bad alpha", lambda t: order_stat_index(10, 1.0), ValueError,
     "alpha must be in (0, 1)"),
    ("conformal_quantile empty", lambda t: conformal_quantile(np.array([]), 0.1), ValueError,
     "nonempty 1-D"),
    ("conformal_quantile 2-D", lambda t: conformal_quantile(np.zeros((2, 2)), 0.1), ValueError,
     "nonempty 1-D"),
    ("calibrate naive", lambda t: calibrate(sort_scores(PROBS), PROBS.labels,
                                            MethodSpec("naive", 0.1)), ValueError,
     "calibrate handles"),
    ("calibrate fixed_k", lambda t: calibrate(sort_scores(PROBS), PROBS.labels, FIXED_K),
     ValueError, "calibrate handles"),
    ("set_size_given_u fixed_k",
     lambda t: set_size_given_u(ConformalModel(FIXED_K, math.inf, 10, 0, 3, k_star=2,
                                               mix_prob=0.5), sort_scores(PROBS), 0),
     ValueError, "does not apply to fixed_k"),
    ("load_model line without =", lambda t: load_model(_file(t, "model.txt", "method aps\n")),
     DataError, "malformed model line"),
    # metrics
    ("coverage_and_size mismatched", lambda t: coverage_and_size([[0], [1]], [0]), DataError,
     "2 sets but 1 labels"),
    ("coverage_and_size no sets", lambda t: coverage_and_size([], []), DataError,
     "no prediction sets"),
    ("sscv_from_arrays empty", lambda t: sscv_from_arrays(np.array([], dtype=np.int64),
                                                          np.array([], dtype=bool),
                                                          ((0, 1), (2, 3)), 0.1),
     DataError, "all strata empty"),
    ("evaluate_models 2-D labels",
     lambda t: evaluate_models([naive_model(0.1, 3)], sort_scores(PROBS), np.zeros((2, 1), int)),
     DataError, "one integer per row"),
    # score_store
    ("_LabelCells other labels", _cells_of_other_labels, ValueError, "cells of other labels"),
    ("softmax on probabilities", lambda t: softmax(PROBS), ValueError, "softmax expects logits"),
    ("sort_scores on logits", lambda t: sort_scores(LOGITS), ValueError,
     "sort_scores expects probabilities"),
    ("SplitSpec negative seed", lambda t: SplitSpec(-1, (1, 1, 1)), ValueError,
     "seed must be nonnegative"),
    ("SplitSpec two sizes", lambda t: SplitSpec(0, (1, 1)), ValueError,
     "sizes must be (tuning, calibration, evaluation)"),
    ("SplitSpec fraction of 1", lambda t: SplitSpec(0, (1.0, 1, 1)).resolve(10), ValueError,
     "fractional size must be in [0, 1)"),
    ("SplitSpec negative size", lambda t: SplitSpec(0, (-1, 1, 1)).resolve(10), ValueError,
     "split size must be nonnegative"),
    ("SplitSpec past n", lambda t: SplitSpec(0, (4, 4, 3)).resolve(10), DataError,
     "exceed available rows"),
    ("save_scores unknown fmt", lambda t: save_scores(PROBS, str(t / "p.npy"), "npy"), ValueError,
     "unknown format 'npy'"),
    ("load_scores unknown fmt", lambda t: load_scores(_file(t, "p.csv", ""), "npy"), ValueError,
     "unknown format 'npy'"),
    ("CSV header K=x", lambda t: load_scores(_file(t, "p.csv", "scores,K=x\n0.5,0.5,0\n")),
     DataError, "malformed header"),
    # synth
    ("oracle_coverage aps without calibration",
     lambda t: oracle_coverage(SynthSpec(n=1, n_classes=3), APS, 0, 10, 1), ValueError,
     "aps needs a calibration split"),
    # trials
    ("TrialProtocol no trials", lambda t: TrialProtocol(n_trials=0, cal_size=2, eval_size=2),
     ValueError, "at least one trial"),
    ("TrialProtocol bad platt_split",
     lambda t: TrialProtocol(n_trials=1, cal_size=2, eval_size=2, platt_split="evaluation"),
     ValueError, "platt_split must be one of"),
    ("platt_split tuning without a tuning split",
     lambda t: run_trials_multi(LOGITS, TrialProtocol(n_trials=1, cal_size=4, eval_size=4,
                                                      platt_split="tuning"),
                                {"aps": MethodPolicy(APS)}),
     ValueError, "platt_split='tuning' needs a tuning split"),
    ("eval_size 0",
     lambda t: run_trials_multi(PROBS, TrialProtocol(n_trials=1, cal_size=2, eval_size=0),
                                {"aps": MethodPolicy(APS)}),
     ValueError, "evaluation splits must be nonempty"),
    # tuning
    ("empty grid", lambda t: tune_for_size(sort_scores(generate(SynthSpec(n=20, n_classes=3))[1]),
                                           np.zeros(20, dtype=int), 0.1, grid=()),
     ValueError, "empty penalty grid"),
]


@pytest.mark.parametrize("call, expect, fragment", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_refusal_names_its_cause(tmp_path, capsys, call, expect, fragment):
    if isinstance(expect, int):  # a CLI run: its exit code and stderr
        assert main(call(tmp_path)) == expect
        assert fragment in capsys.readouterr().err
    else:
        with pytest.raises(expect) as refused:
            call(tmp_path)
        assert refused.type is expect
        assert fragment in str(refused.value)
