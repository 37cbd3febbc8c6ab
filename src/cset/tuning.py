"""Data-driven choice of the raps knobs and the fixed-size baseline, and each method's fitter.

The tuners run on a tuning split that is disjoint from the calibration and
evaluation splits, so the conformal guarantee downstream is untouched.
Around a thousand tuning rows is plenty in practice; the hard floor is 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .conformal import (
    ConformalModel,
    MethodSpec,
    calibrate,
    conformal_quantile,
    naive_model,
    set_sizes,
)
from .metrics import default_strata, sscv_from_arrays
from .score_store import DataError, SortedScores

SIZE_LAMBDA_GRID = (0.001, 0.01, 0.1, 0.2, 0.5)
ADAPT_LAMBDA_GRID = (0.00001, 0.0001, 0.0008, 0.001, 0.0015, 0.002)
TUNE_OBJECTIVES = ("size", "adaptiveness")
MIN_TUNE_ROWS = 20


@dataclass(frozen=True)
class TuneResult:
    """Chosen raps knobs plus the full grid of candidate objective values."""

    k_star: int
    kreg: int
    penalty: float
    objective: str
    grid: tuple  # ((penalty, objective value), ...) in grid order


def fixed_k_star(ss: SortedScores, labels: np.ndarray, alpha: float) -> int:
    """Smallest k such that top-k covers at least the conformal fraction.

    Equals the ceil((n+1)(1-alpha))-th smallest true-label rank, or K when
    that index runs past the sample.
    """
    k = conformal_quantile(ss.label_ranks(labels), alpha)
    return ss.n_classes if k == math.inf else int(k)


def make_fixed_k_model(
    ss: SortedScores,
    labels: np.ndarray,
    alpha: float,
    seed: int = 0,
    randomized: bool = True,
) -> ConformalModel:
    """Randomized top-k model with calibration coverage 1 - alpha.

    Predicts top-(k*-1) with probability mix_prob, else top-k*, where
    mix_prob interpolates between the empirical coverages of the two sizes
    on the calibration split; the mixture hits 1 - alpha within 1/n.
    """
    n = ss.n
    ranks = ss.label_ranks(labels)
    k_star = fixed_k_star(ss, labels, alpha)
    c_hi = float(np.mean(ranks <= k_star))
    c_lo = float(np.mean(ranks <= k_star - 1)) if k_star > 1 else 0.0
    denom = c_hi - c_lo
    if denom <= 0.0:
        mix = 0.0
    else:
        mix = min(max((c_hi - (1.0 - alpha)) / denom, 0.0), 1.0)
    spec = MethodSpec("fixed_k", alpha, randomized=randomized)
    return ConformalModel(spec, math.inf, n, seed, ss.n_classes, k_star=k_star, mix_prob=mix)


def _nested_halves(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    perm = seeds.rng(seed, seeds.TUNE_SPLIT).permutation(n)
    half = n // 2
    return perm[:half], perm[half:]


def _tune(
    ss: SortedScores,
    labels: np.ndarray,
    alpha: float,
    grid,
    seed: int,
    objective: str,
    strata,
) -> TuneResult:
    if ss.n < MIN_TUNE_ROWS:
        raise DataError(f"tuning split too small to split again ({ss.n} rows, need {MIN_TUNE_ROWS})")
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("empty penalty grid")
    labels = np.asarray(labels)
    k_star = fixed_k_star(ss, labels, alpha)
    cal_idx, ev_idx = _nested_halves(ss.n, seed)
    ss_cal, y_cal = ss.take(cal_idx), labels[cal_idx]
    ss_ev, y_ev = ss.take(ev_idx), labels[ev_idx]
    if strata is None:
        strata = default_strata(ss.n_classes)

    values = []
    for j, pen in enumerate(grid):
        spec = MethodSpec("raps", alpha, penalty=pen, kreg=k_star, randomized=True)
        model = calibrate(ss_cal, y_cal, spec, seed=seeds.child_seed(seed, seeds.TUNE_GRID, j))
        u = seeds.rng(seed, seeds.TUNE_GRID, j, seeds.EVAL_U).random(ss_ev.n)
        sizes = set_sizes(model, ss_ev, u)
        if objective == "size":
            values.append(float(np.mean(sizes)))
        else:
            covered = ss_ev.label_ranks(y_ev) <= sizes
            values.append(sscv_from_arrays(sizes, covered, strata, alpha))

    if objective == "size":
        # ties break toward the larger penalty (smaller sets on new data)
        best = min(range(len(grid)), key=lambda j: (values[j], -grid[j]))
    else:
        # ties break toward the smaller penalty (less distortion)
        best = min(range(len(grid)), key=lambda j: (values[j], grid[j]))
    return TuneResult(k_star, k_star, grid[best], objective, tuple(zip(grid, values)))


def tune_for_size(
    ss: SortedScores,
    labels: np.ndarray,
    alpha: float,
    grid=SIZE_LAMBDA_GRID,
    seed: int = 0,
) -> TuneResult:
    """Pick the penalty that minimizes mean set size on a nested split.

    kreg is set to the top-k size k* measured on the same tuning data. Each
    grid point is scored on one shared 50/50 nested split with its own
    derived randomization stream, so the search is deterministic and
    schedule-independent.
    """
    return _tune(ss, labels, alpha, grid, seed, "size", None)


def tune_for_adaptiveness(
    ss: SortedScores,
    labels: np.ndarray,
    alpha: float,
    grid=ADAPT_LAMBDA_GRID,
    seed: int = 0,
    strata=None,
) -> TuneResult:
    """Pick the penalty that minimizes size-stratified coverage violation."""
    return _tune(ss, labels, alpha, grid, seed, "adaptiveness", strata)


def tune(ss: SortedScores, labels: np.ndarray, alpha: float, objective: str, grid=None,
         seed: int = 0, strata=None) -> TuneResult:
    """Tune raps for one of TUNE_OBJECTIVES; grid None means that objective's
    default grid. strata apply to the adaptiveness objective only."""
    if objective == "size":
        return tune_for_size(ss, labels, alpha, SIZE_LAMBDA_GRID if grid is None else grid, seed)
    if objective == "adaptiveness":
        return tune_for_adaptiveness(ss, labels, alpha, ADAPT_LAMBDA_GRID if grid is None else grid,
                                     seed, strata)
    raise ValueError(f"unknown tune objective {objective!r}")


def fit_model(ss: SortedScores, labels: np.ndarray, spec: MethodSpec,
              seed: int = 0) -> ConformalModel:
    """Fit spec's method on a calibration split: naive needs no data, fixed_k
    picks its top-k mixture, and aps, raps and lac calibrate a threshold."""
    if spec.method == "naive":
        return naive_model(spec.alpha, ss.n_classes, spec.randomized)
    if spec.method == "fixed_k":
        return make_fixed_k_model(ss, labels, spec.alpha, seed, spec.randomized)
    return calibrate(ss, labels, spec, seed=seed)
