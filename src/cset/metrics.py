"""Coverage, size, and adaptiveness metrics for prediction sets.

The public entry points accept explicit prediction sets (any iterable of
PredictionSet) so they can be checked against hand counts; the *_from_arrays
variants work on set sizes and coverage indicators directly and are what the
trial harness uses, since every set produced in this package is a prefix of
the sorted class order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import ConformalModel, _sizer
from .score_store import DataError, SortedScores
from . import seeds

DIFFICULTY_BINS = ((1, 1), (2, 3), (4, 6), (7, 10), (11, 100), (101, 1000))
BASE_STRATA = ((0, 1), (2, 3), (4, 10), (11, 100), (101, 1000))


def _clip_bins(bins: tuple, n_classes: int) -> tuple:
    """Drop bins that start past K, cap the rest at K, stretch the last to K."""
    out = []
    for lo, hi in bins:
        if lo > n_classes:
            break
        out.append((lo, min(hi, n_classes)))
    if out and out[-1][1] < n_classes:
        out[-1] = (out[-1][0], n_classes)
    return tuple(out)


def default_strata(n_classes: int) -> tuple:
    """Set-size strata clipped to [0, K]; the first stratum holds sizes 0-1."""
    return _clip_bins(BASE_STRATA, n_classes)


@dataclass(frozen=True)
class StratumRow:
    lo: int
    hi: int
    count: int
    coverage: float | None


@dataclass(frozen=True)
class DifficultyRow:
    lo: int
    hi: int
    count: int
    coverage: float | None
    avg_size: float | None


@dataclass(frozen=True)
class EvalReport:
    """Everything measured on one evaluation split."""

    n_eval: int
    coverage: float
    avg_size: float
    sscv: float
    top1: float
    top5: float
    size_hist: dict
    per_stratum: tuple
    per_difficulty: tuple


def default_difficulty_bins(n_classes: int) -> tuple:
    """True-label-rank bins clipped to [1, K]."""
    return _clip_bins(DIFFICULTY_BINS, n_classes)


def _sets_to_arrays(sets, labels) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    # a PredictionSet or any collection of class indices
    sets = [s.classes if hasattr(s, "classes") else s for s in sets]
    if len(sets) != len(labels):
        raise DataError(f"{len(sets)} sets but {len(labels)} labels")
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    covered = np.array(
        [int(label) in s for s, label in zip(sets, labels)], dtype=bool
    )
    return sizes, covered


def coverage_and_size(sets, labels) -> tuple[float, float]:
    """(fraction of labels inside their set, mean set size)."""
    sizes, covered = _sets_to_arrays(sets, labels)
    if sizes.size == 0:
        raise DataError("no prediction sets to evaluate")
    return float(np.mean(covered)), float(np.mean(sizes))


def _validate_strata(strata) -> tuple:
    strata = tuple((int(lo), int(hi)) for lo, hi in strata)
    if not strata:
        raise ValueError("need at least one stratum")
    for lo, hi in strata:
        if lo > hi:
            raise ValueError(f"bad stratum ({lo}, {hi})")
    # Sorted by lo, two ranges overlap only if some neighbours do; a repeat overlaps itself.
    ordered = sorted(strata)
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if lo2 <= hi1:
            raise ValueError(f"overlapping strata ({lo1},{hi1}) and ({lo2},{hi2})")
    return strata


def _range_totals(keys: np.ndarray, ranges: tuple, *weights) -> tuple:
    """Index of the disjoint (lo, hi) range holding each row's integer key
    (len(ranges) if none), and per range the row count and each weight's sum.
    Keys and weights are integers (bools count 0/1), so every sum is exact
    and sum / count has the bits of np.mean over the range's rows."""
    order = np.argsort([lo for lo, _ in ranges])
    los, his = np.array(ranges).T[:, order]
    at = np.searchsorted(los, keys, side="right") - 1
    which = np.where((at >= 0) & (keys <= his[at]), order[at], len(ranges))
    return which, [np.bincount(which, w, minlength=len(ranges) + 1)[:-1] for w in (None, *weights)]


def strata_rows(sizes: np.ndarray, covered: np.ndarray, strata) -> tuple:
    """Per-stratum counts and coverages; empty strata carry coverage None."""
    strata = _validate_strata(strata)
    which, (counts, hits) = _range_totals(sizes, strata, covered)
    if (which == len(strata)).any():
        raise DataError(f"set size {int(sizes[which == len(strata)][0])} falls in no stratum")
    return tuple(StratumRow(lo, hi, int(c), float(h / c) if c else None)
                 for (lo, hi), c, h in zip(strata, counts, hits))


def sscv_from_arrays(sizes: np.ndarray, covered: np.ndarray, strata, alpha: float) -> float:
    """Worst absolute gap between stratum coverage and 1 - alpha.

    Strata are disjoint integer ranges of set size; empty strata are
    skipped. Zero only when every nonempty stratum hits 1 - alpha exactly.
    """
    rows = strata_rows(np.asarray(sizes), np.asarray(covered), strata)
    gaps = [abs(r.coverage - (1.0 - alpha)) for r in rows if r.coverage is not None]
    if not gaps:
        raise DataError("all strata empty")
    return float(max(gaps))


def sscv(sets, labels, strata, alpha: float) -> float:
    sizes, covered = _sets_to_arrays(sets, labels)
    return sscv_from_arrays(sizes, covered, strata, alpha)


def difficulty_rows(ranks: np.ndarray, sizes: np.ndarray, covered: np.ndarray, bins) -> tuple:
    bins = _validate_strata(bins)
    _, (counts, hits, total) = _range_totals(ranks, bins, covered, sizes)
    return tuple(DifficultyRow(lo, hi, int(c), float(h / c), float(t / c)) if c
                 else DifficultyRow(lo, hi, 0, None, None)
                 for (lo, hi), c, h, t in zip(bins, counts, hits, total))


def difficulty_table(sets, labels, ss: SortedScores) -> tuple:
    """Coverage and size grouped by how deep the true label sits.

    The difficulty of an example is the 1-based rank of its label in the
    sorted score order; bin (1, 1) is exactly the top-1-correct examples.
    """
    sizes, covered = _sets_to_arrays(sets, labels)
    ranks = ss.label_ranks(np.asarray(labels))
    return difficulty_rows(ranks, sizes, covered, default_difficulty_bins(ss.n_classes))


def size_histogram(sizes: np.ndarray) -> dict:
    """Map set size -> count; sizes times counts reproduces the total mass."""
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.bincount(sizes)
    return {int(s): int(c) for s, c in enumerate(counts) if c > 0}


def evaluate_arrays(
    sizes: np.ndarray,
    ranks: np.ndarray,
    alpha: float,
    strata,
    bins,
) -> EvalReport:
    """Full report from set sizes and true-label ranks (prefix sets)."""
    covered = ranks <= sizes
    return EvalReport(
        n_eval=int(sizes.size),
        coverage=float(np.mean(covered)),
        avg_size=float(np.mean(sizes)),
        sscv=sscv_from_arrays(sizes, covered, strata, alpha),
        top1=float(np.mean(ranks <= 1)),
        top5=float(np.mean(ranks <= 5)),
        size_hist=size_histogram(sizes),
        per_stratum=strata_rows(sizes, covered, strata),
        per_difficulty=difficulty_rows(ranks, sizes, covered, bins),
    )


def evaluate_models(models, ss, labels: np.ndarray, seed: int = 0,
                    strata=None, n_full: int | None = None) -> list:
    """Predict with every model on one evaluation split and measure each.

    ss is the split's SortedScores or its sorted row blocks in row order
    (each sorted from its first row), read one at a time into n-length set
    sizes and label ranks. Randomized models share one u per row from the
    substream (seed, EVAL_U), drawn only if some model is randomized. The
    set_sizes_many setup, strata and bins are found once. Only the first
    n_full models (all by default) get an EvalReport; each later one gets
    its float(np.mean(sizes)), bit for bit that avg_size.
    """
    models, labels = tuple(models), np.asarray(labels)
    if labels.ndim != 1:
        raise DataError("labels must be one integer per row")
    n = labels.size
    randomized = any(model.spec.randomized for model in models)
    u = seeds.rng(seed, seeds.EVAL_U).random(n) if randomized else None
    ranks, lo, size = np.empty(n, dtype=np.intp), 0, None
    for block in (ss,) if isinstance(ss, SortedScores) else ss:
        if size is None:  # the first block gives K
            k = block.n_classes
            all_sizes = [np.empty(n, dtype=np.int64) for _ in models]
            size = _sizer(models, k)
        hi = lo + block.n
        ranks[lo:hi] = block.label_ranks(labels[lo:hi])
        for sizes, got in zip(all_sizes, size(block, None if u is None else u[lo:hi])):
            sizes[lo:hi] = got
        lo = hi
        del block  # freed before the next block is sorted
    if size is None or lo != n:
        raise DataError("labels must be one integer per row")
    if strata is None:
        strata = default_strata(k)
    bins = default_difficulty_bins(k)
    return [evaluate_arrays(sizes, ranks, model.spec.alpha, strata, bins)
            if n_full is None or i < n_full else float(np.mean(sizes))
            for i, (model, sizes) in enumerate(zip(models, all_sizes))]


def evaluate_model(model: ConformalModel, ss, labels: np.ndarray, seed: int = 0,
                   strata=None) -> EvalReport:
    """evaluate_models for one model: predict on a split and measure everything."""
    return evaluate_models((model,), ss, labels, seed, strata)[0]
