"""Single-parameter temperature scaling of logits.

Rescaling logits by a fitted temperature improves probability calibration
without changing the within-row ranking. The fit minimizes the mean negative
log-likelihood over a bracket by golden-section search; the objective is
convex in 1/T, so the slopes at evaluated points let the search skip others.

Cost model: the row-max shift of the logits is computed once per matrix.
Each evaluation of the objective is then one divide and one exp pass over
the shifted logits, plus a row sum (and a row dot product for the search's
slope), run in ``score_store._row_blocks``' cache-sized row blocks through
reused buffers. A fit at the default bracket and tolerance makes 26
comparisons; on 10k x 1000 ImageNet-shaped logits they evaluate 16
temperatures, where evaluating every point took 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .score_store import ScoreMatrix, _row_blocks, check_temperature

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_BOUNDS = (0.05, 20.0)
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class TemperatureFit:
    temperature: float
    nll_before: float
    nll_after: float
    iterations: int


def _nll_at(m: ScoreMatrix):
    """Return ``T -> nll(m, T)`` for one logit matrix; with ``slope=True`` it
    returns ``(nll, slope)``, the slope in 1/T being
    T * mean(sum(z e^z) / sum(e^z) - z_y) at z = shifted logits / T.

    The row-max shift is computed here, once; every call reuses the block
    buffers, so a call allocates nothing of size n x K. Each row is summed
    on its own, so block passes give the same bits as whole-matrix passes.
    """
    if m.kind != "logits":
        raise ValueError("nll expects logits")
    n, k = m.scores.shape
    shifted = m.scores - m.scores.max(axis=1, keepdims=True)
    blocks = list(_row_blocks(n, k))
    buf, exps = np.empty((2, blocks[0].stop, k))
    at_row = np.arange(len(buf))
    sums, picked, moments = np.empty((3, n))

    def at(temperature: float, slope: bool = False):
        check_temperature(temperature)
        for rows in blocks:
            z = np.divide(shifted[rows], temperature, out=buf[: rows.stop - rows.start])
            picked[rows] = z[at_row[: len(z)], m.labels[rows]]
            e = np.exp(z, out=exps[: len(z)] if slope else z)
            e.sum(axis=1, out=sums[rows])
            if slope:
                np.einsum("ij,ij->i", z, e, out=moments[rows])
        value = float(np.mean(np.log(sums) - picked))
        return (value, temperature * float(np.mean(moments / sums - picked))) if slope else value

    return at


def nll(m: ScoreMatrix, temperature: float) -> float:
    """Mean negative log-likelihood of the labels under softmax(logits / T).

    Computed from the log-sum-exp form with the row max subtracted, so it is
    invariant (to float rounding) under per-row constant shifts of the
    logits. Summation order is fixed (numpy pairwise), so the value is
    reproducible. The temperature must be positive and finite.
    """
    return _nll_at(m)(temperature)


def fit_temperature(
    m: ScoreMatrix,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    tol: float = DEFAULT_TOL,
) -> TemperatureFit:
    """Golden-section minimization of nll over a temperature bracket.

    The bracket shrinks by the golden ratio each iteration until its width
    drops below tol, or until it can no longer shrink in floating point (the
    two interior points are not strictly inside the bracket and in order),
    so any tol returns; the midpoint is the fitted temperature. If T=1 lies
    in the bracket and happens to beat the fitted point (flat optimum), 1 is
    returned instead, so scaling never hurts the training objective.
    Deterministic: identical inputs give bit-identical output. The bounds
    must satisfy 0 < t_lo < t_hi with 2 * t_hi finite (t_hi up to about
    9e307), so the midpoint a + b of any two points cannot overflow.

    A comparison ``fc < fd`` of interior points c < d evaluates them only if
    no known slope settles it. The nll is convex in 1/T, so a slope at an
    evaluated q beyond its rounding bound q * err(q) puts the minimum on one
    side of q, and for c < d both on the other side the nll differs by at
    least (|slope| - bound) * (1/c - 1/d). Past err(c) + err(d), the rounded
    values keep that order: err(T) = 1e-9 * (log K + gap / T), gap the mean
    of (row max - label logit), bounds the rounding, as with the row max at 0
    a row's log-sum-exp and -E[z] lie in [0, log K] and -z_y >= 0. A NaN or
    infinite margin settles nothing. So each outcome, and each output bit, is
    as if every point were evaluated. ``nll_before`` is the search's value at
    T = 1, whose slope starts it; ``nll_after`` is :func:`nll` at the fit,
    which shifts the logits once more. The default bracket and tol take 26
    comparisons; a tol below the float spacing ends on the second rule
    instead, after at most about 90 on the default bracket.
    """
    lo, hi = bounds
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < t_lo < t_hi < inf, got ({lo}, {hi})")
    if math.isinf(hi + hi):
        raise ValueError(
            f"t_hi must be at most half the largest float, so that the midpoint "
            f"of two temperatures in the bracket stays finite, got {hi}"
        )
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    f = _nll_at(m)
    gap = float(np.mean(m.scores.max(axis=1) - m.scores[np.arange(m.n), m.labels]))
    known = []  # (q, slope, its rounding bound) of each point evaluated

    def err(t: float) -> float:
        return 1e-9 * (math.log(m.n_classes) + gap / t)

    def at(t: float) -> float:
        value, slope = f(t, slope=True)
        known.append((t, slope, t * err(t)))
        return value

    def settled(c: float, d: float):
        """``fc < fd`` if a known slope decides it, else None."""
        for q, slope, bound in known:
            margin = (abs(slope) - bound) * (1.0 / c - 1.0 / d)
            if math.isfinite(margin) and margin > err(c) + err(d) and (d <= q if slope > 0 else q <= c):
                return slope < 0

    base = at(1.0)
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fd = None
    iterations = 0
    while b - a > tol and a < c < d < b:
        less = settled(c, d)
        if less is None and fc is None:
            fc = at(c)
            less = settled(c, d)
        if less is None:
            fd = at(d) if fd is None else fd
            less = fc < fd
        if less:
            b, d, fd, fc = d, c, fc, None
            c = b - _INVPHI * (b - a)
        else:
            a, c, fc, fd = c, d, fd, None
            d = a + _INVPHI * (b - a)
        iterations += 1

    del f  # free the search's shifted copy before nll shifts its own
    t = 0.5 * (a + b)
    best = nll(m, t)
    if lo <= 1.0 <= hi and base < best:
        t, best = 1.0, base
    return TemperatureFit(t, base, best, iterations)
