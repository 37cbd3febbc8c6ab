"""Synthetic classification scores with known ground truth.

Each example draws a true conditional distribution from a symmetric
Dirichlet (per-coordinate parameter concentration / K), samples the label
from it, and then reports either the truth or a corrupted version as the
observed score row. Because the truth is known, marginal coverage of any set
construction can be estimated to Monte-Carlo accuracy and used as an
independent check on conformal claims.

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
from .score_store import ScoreMatrix, sort_scores

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
    bit-reproducible for a given seed.
    """
    n, k = spec.n, spec.n_classes
    gen = seeds.rng(spec.seed, seeds.SYNTH)
    g = gen.gamma(spec.concentration / k, 1.0, size=(n, k))
    np.clip(g, 1e-290, None, out=g)  # keep every class mass strictly positive
    p = g / g.sum(axis=1, keepdims=True)

    r = seeds.rng(spec.seed, seeds.LABELS).random(n)
    labels = np.minimum((np.cumsum(p, axis=1) < r[:, None]).sum(axis=1), k - 1)

    # Both arrays are fresh and valid, so they are wrapped without a copy;
    # with no corruption, truth and observed share one read-only array.
    observed = _corrupt(p, spec)
    return (ScoreMatrix._trusted(p, labels, "probabilities"),
            ScoreMatrix._trusted(observed, labels, "probabilities"))


def _corrupt(p: np.ndarray, spec: SynthSpec) -> np.ndarray:
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
    _, observed = generate(data_spec)
    if mspec.method == "naive":
        model = naive_model(mspec.alpha, observed.n_classes, mspec.randomized)
        ev = observed
    else:
        idx = np.arange(observed.n)
        cal = observed.take(idx[:n_cal])
        ev = observed.take(idx[n_cal:])
        ss_cal = sort_scores(cal, seeds.child_seed(trial_seed, seeds.SORT, 0))
        model = calibrate(ss_cal, cal.labels, mspec, seed=trial_seed)
    ss_ev = sort_scores(ev, seeds.child_seed(trial_seed, seeds.SORT, 1))
    u = seeds.rng(trial_seed, seeds.EVAL_U).random(ss_ev.n) if mspec.randomized else None
    sizes = set_sizes(model, ss_ev, u)
    ranks = ss_ev.label_ranks(ev.labels)
    return np.mean(ranks <= sizes)
