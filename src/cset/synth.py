"""Synthetic classification scores with known ground truth.

Each example draws a true conditional distribution from a symmetric
Dirichlet (per-coordinate parameter concentration / K), samples the label
from it, and then reports either the truth or a corrupted version as the
observed score row. Because the truth is known, marginal coverage of any set
construction can be estimated to Monte-Carlo accuracy and used as an
independent check on conformal claims.

Rows are made in blocks of about ``score_store._BLOCK_CELLS`` cells, so
generating holds the n x K truth and observed matrices plus one block.

Corruptions
-----------
none
    Observed scores equal the true conditionals.
temperature(t)
    Observed scores are the true conditionals raised to 1/t and
    renormalized; t > 1 flattens, t < 1 sharpens.
tail_permute(top_m)
    The probabilities at ranks beyond top_m are shuffled among those ranks.
    The top-m values and their order are untouched, and since a shuffle
    moves the same values around, rows still sum to exactly 1. This mimics
    a classifier whose head is reliable but whose tail ordering is noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .conformal import MethodSpec, calibrate, naive_model, set_sizes
from .score_store import ScoreMatrix, _row_blocks, sort_scores

CORRUPTIONS = ("none", "temperature", "tail_permute")


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; concentration defaults to 0.05 * K, which puts
    most mass on a handful of classes, comparable to a strong classifier."""

    n: int
    n_classes: int
    concentration: float = 0.0  # 0 means the 0.05 * K default
    corruption: str = "none"
    corruption_param: float = 0.0  # temperature t, or top_m for tail_permute
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.concentration == 0.0:
            object.__setattr__(self, "concentration", 0.05 * self.n_classes)
        if not 0 < self.concentration < np.inf:
            raise ValueError(f"concentration must be positive and finite, got {self.concentration}")
        if self.corruption not in CORRUPTIONS:
            raise ValueError(f"unknown corruption {self.corruption!r}")
        if self.corruption == "none" and self.corruption_param != 0:
            raise ValueError("a corruption parameter needs a corruption other than none")
        if self.corruption == "temperature" and not 0 < self.corruption_param < np.inf:
            raise ValueError(f"temperature needs a finite t > 0, got {self.corruption_param}")
        if self.corruption == "tail_permute":
            m = self.corruption_param
            if not 0 <= m <= self.n_classes or m != int(m):  # range first: int(inf) overflows
                raise ValueError(f"top_m must be an integer in [0, {self.n_classes}]")


def generate(spec: SynthSpec) -> tuple[ScoreMatrix, ScoreMatrix]:
    """(true conditionals, observed scores); labels are drawn from the truth.

    Dirichlet rows come from normalized gamma variates. Only the statistical
    law is contractual across platforms, but a given numpy build is
    bit-reproducible for a given seed, whatever the row block: each stream is
    drawn in one whole-matrix draw's order. Memory is the two n x K results
    plus one block of about ``score_store._BLOCK_CELLS`` cells.
    """
    n, k = spec.n, spec.n_classes
    gen, r_gen = seeds.rng(spec.seed, seeds.SYNTH), seeds.rng(spec.seed, seeds.LABELS)
    key_gen = seeds.rng(spec.seed, seeds.SYNTH, 1)
    p, labels = np.empty((n, k)), np.empty(n, dtype=np.int64)
    # Where no value moves, truth and observed share one read-only array.
    moves = spec.corruption == "temperature" or (
        spec.corruption == "tail_permute" and spec.corruption_param < k - 1)
    observed = np.empty((n, k)) if moves else p
    for rows in _row_blocks(n, k):
        block = p[rows]
        gen.standard_gamma(spec.concentration / k, out=block)  # the bits of gamma(c / k, 1.0)
        np.clip(block, 1e-290, None, out=block)  # keep every class mass strictly positive
        block /= block.sum(axis=1, keepdims=True)
        below = np.cumsum(block, axis=1) < r_gen.random(len(block))[:, None]
        np.minimum(below.sum(axis=1), k - 1, out=labels[rows])
        if moves:
            _corrupt(block, spec, key_gen, observed[rows])
    # Both arrays are fresh and valid, so they are wrapped without a copy.
    return (ScoreMatrix._trusted(p, labels, "probabilities"),
            ScoreMatrix._trusted(observed, labels, "probabilities"))


def _corrupt(p: np.ndarray, spec: SynthSpec, key_gen: np.random.Generator,
             out: np.ndarray) -> None:
    """Write the observed rows of the truth rows p into out; tail_permute
    draws its keys from key_gen, one per tail rank, in row order."""
    if spec.corruption == "temperature":
        z = np.log(p) / spec.corruption_param
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        np.divide(z, z.sum(axis=1, keepdims=True), out=out)
        return
    # tail_permute: shuffle the values sitting at ranks > top_m of each row.
    # The ranks are those of the stable sort of -p; any sort gives that order
    # to a row of distinct values, so only a row with a tie or a NaN needs
    # it. A row whose least value repeats, as clipped cells do, surely ties.
    top_m = int(spec.corruption_param)
    tied = np.count_nonzero(p == p.min(axis=1, keepdims=True), axis=1) > 1
    s = np.sort(p[~tied], axis=1)
    tied[~tied] = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    del s  # one block array less at the peak
    order = np.empty(p.shape, dtype=np.intp)
    order[~tied] = np.argsort(p[~tied], axis=1)[:, ::-1]
    order[tied] = np.argsort(-p[tied], axis=1, kind="stable")
    n, k = p.shape
    order += (np.arange(n) * k)[:, None]  # flat cells, in rank order
    # The value at tail rank j moves to the tail rank whose key is j-th smallest.
    pick = np.argsort(key_gen.random((n, k - top_m)), axis=1)
    pick += (np.arange(n) * k + top_m)[:, None]
    pick = order.reshape(-1)[pick]
    out[...] = p
    out.reshape(-1)[pick] = p.reshape(-1)[order[:, top_m:]]


def oracle_coverage(
    spec: SynthSpec,
    mspec: MethodSpec,
    n_cal: int,
    n_eval: int,
    n_trials: int,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of P(label in set) under the generator.

    Every trial draws fresh data, calibrates on its own rows (skipped for
    naive), and predicts on fresh evaluation rows, so the estimate
    marginalizes over everything the coverage guarantee marginalizes over.
    The evaluation rows are sorted and sized one row block at a time.
    """
    if mspec.method == "fixed_k":
        raise ValueError("oracle_coverage covers the threshold methods, not fixed_k")
    if mspec.method != "naive" and n_cal < 1:
        raise ValueError(f"{mspec.method} needs a calibration split")
    if n_eval < 1 or n_trials < 1:
        raise ValueError(f"need n_eval and n_trials of at least 1, got {n_eval} and {n_trials}")
    covered = [
        _oracle_trial(spec, mspec, n_cal, n_eval, seeds.child_seed(seed, seeds.TRIAL, t))
        for t in range(n_trials)
    ]
    return float(np.mean(covered))


def _oracle_trial(
    spec: SynthSpec, mspec: MethodSpec, n_cal: int, n_eval: int, trial_seed: int
) -> float:
    """Coverage of one oracle_coverage trial; its data is released on return."""
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
