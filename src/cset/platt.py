"""Single-parameter temperature scaling of logits.

Rescaling logits by a fitted temperature improves probability calibration
without changing the within-row ranking. The fit minimizes the mean negative
log-likelihood over a bracket by golden-section search; the objective is
convex in practice, and the search never needs derivatives.

Cost model: the row-max shift of the logits is computed once per matrix.
Each evaluation of the objective is then one divide and one exp pass over
the shifted logits, plus a row sum, run in ``score_store._row_blocks``'
cache-sized row blocks through one buffer that every evaluation reuses. A
fit at the default bracket and tolerance evaluates about 30 temperatures.
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
    """Return ``T -> nll(m, T)`` for one logit matrix.

    The row-max shift is computed here, once; every call reuses one block
    buffer, so a call allocates nothing of size n x K. Each row is summed on
    its own, so block passes give the same bits as whole-matrix passes.
    """
    if m.kind != "logits":
        raise ValueError("nll expects logits")
    n, k = m.scores.shape
    shifted = m.scores - m.scores.max(axis=1, keepdims=True)
    blocks = list(_row_blocks(n, k))
    buf = np.empty((blocks[0].stop, k))
    at_row = np.arange(len(buf))
    sums = np.empty(n)
    picked = np.empty(n)

    def at(temperature: float) -> float:
        check_temperature(temperature)
        for rows in blocks:
            z = np.divide(shifted[rows], temperature, out=buf[: rows.stop - rows.start])
            picked[rows] = z[at_row[: len(z)], m.labels[rows]]
            np.exp(z, out=z)
            z.sum(axis=1, out=sums[rows])
        return float(np.mean(np.log(sums) - picked))

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

    ``nll_before`` comes from one call of :func:`nll`; the search shifts the
    logits once more and then costs one divide+exp pass through a reused
    buffer per evaluation: about 30 evaluations at the default bracket and
    tol. A tol below the float spacing ends on the second rule instead,
    after at most about 90 evaluations on the default bracket.
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
    base = nll(m, 1.0)
    f = _nll_at(m)

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        iterations += 1

    t = 0.5 * (a + b)
    best = f(t)
    if lo <= 1.0 <= hi and base < best:
        t, best = 1.0, base
    return TemperatureFit(t, base, best, iterations)
