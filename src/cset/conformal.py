"""Conformal prediction sets over sorted probability rows.

Methods
-------
naive
    Shortest prefix of the sorted row whose mass reaches tau_hat = 1 - alpha,
    with a randomized removal of the boundary class. No calibration step.
aps
    Cumulative-mass conformity score, calibrated threshold. Identical to
    raps with zero penalty, enforced by construction.
raps
    aps plus a per-rank penalty penalty * max(rank - kreg, 0) that prices
    classes deep in the sorted order out of the set.
lac
    Conformity score 1 - p(label); sets are top slices by raw probability.
fixed_k
    Randomized mix of top-(k-1) and top-k sets sized on calibration data
    (see tuning.make_fixed_k_model).

Scores are nondecreasing in the rank for any fixed randomization variable u,
so every prediction set is a prefix of the sorted row and can be represented
by its size alone. Calibration picks the ceil((n+1)(1-alpha))-th smallest
calibration score; when that index exceeds n the threshold is +inf and the
set is all K classes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import seeds
from .score_store import DataError, ScoreMatrix, SortedScores, _kv, _row_blocks

METHODS = ("naive", "aps", "raps", "lac", "fixed_k")
CALIBRATED_METHODS = ("aps", "raps", "lac")


@dataclass(frozen=True)
class MethodSpec:
    """Method choice plus its knobs.

    penalty and kreg only matter for raps; aps is pinned to zero penalty so
    that aps and raps(penalty=0) cannot drift apart. randomized=False fixes
    u = 1 everywhere (conservative supersets). boundary_inclusive switches
    deterministic aps/raps sets to the variant that also includes the first
    class whose score exceeds the threshold.
    """

    method: str
    alpha: float
    penalty: float = 0.0
    kreg: int = 1
    randomized: bool = True
    boundary_inclusive: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.penalty < math.inf:
            raise ValueError(f"penalty must be nonnegative and finite, got {self.penalty}")
        if self.method != "raps" and self.penalty != 0.0:
            raise ValueError(f"penalty is a raps knob, not valid for {self.method}")
        if self.kreg < 1:
            raise ValueError(f"kreg must be at least 1, got {self.kreg}")


@dataclass(frozen=True)
class ConformalModel:
    """Frozen output of calibration, sufficient to predict on new rows."""

    spec: MethodSpec
    tau_hat: float
    n_cal: int
    seed: int
    n_classes: int
    k_star: int | None = None
    mix_prob: float | None = None

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("model needs at least 2 classes")
        if math.isnan(self.tau_hat) or self.tau_hat == -math.inf:
            raise ValueError(f"tau_hat must be finite or inf, got {self.tau_hat}")
        if self.n_cal < 0:
            raise ValueError(f"n_cal must be nonnegative, got {self.n_cal}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.spec.method == "fixed_k":
            if self.k_star is None or self.mix_prob is None:
                raise ValueError("fixed_k model requires k_star and mix_prob")
            if not 1 <= self.k_star <= self.n_classes:
                raise ValueError(f"k_star {self.k_star} out of range [1, {self.n_classes}]")
            if not 0.0 <= self.mix_prob <= 1.0:
                raise ValueError(f"mix_prob must be in [0, 1], got {self.mix_prob}")
        elif self.k_star is not None or self.mix_prob is not None:
            raise ValueError(f"k_star and mix_prob apply to fixed_k only, not {self.spec.method}")


@dataclass(frozen=True)
class PredictionSet:
    """Class indices most-to-least likely, plus the realized u (if any)."""

    classes: tuple
    u: float | None = None

    @property
    def size(self) -> int:
        return len(self.classes)


def order_stat_index(n: int, alpha: float) -> int:
    """ceil((n+1)(1-alpha)), evaluated exactly.

    alpha is read through its shortest decimal form, so 0.3 means 3/10, not
    the binary double sitting just below it. Plain float products (and exact
    rationals built from the binary value) can both land on the wrong side
    of an integer and shift the order statistic by one: at n=9, float
    arithmetic turns alpha=0.1 into index 10, and the binary rational turns
    alpha=0.3 into index 8; the decimal reading gives 9 and 7.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.ceil((n + 1) * (1 - Fraction(str(alpha))))


def conformal_quantile(values: np.ndarray, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest value, or +inf past the sample.

    The +inf overflow happens whenever n is too small for the requested
    confidence (for example n=4 at alpha=0.1); prediction then returns all
    classes, which keeps the coverage claim honest on tiny data.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    k = order_stat_index(values.size, alpha)
    if k > values.size:
        return math.inf
    return float(np.partition(values, k - 1)[k - 1])


def _penalty_vector(k: int, spec: MethodSpec) -> np.ndarray | None:
    """Rank penalty of ranks 1..k, or None when the method has none."""
    if spec.penalty == 0.0:
        return None
    return spec.penalty * np.maximum(np.arange(1, k + 1) - spec.kreg, 0)


def conformity_score(ss: SortedScores, row: int, rank: int, u: float, spec: MethodSpec) -> float:
    """Score of the class at the given 1-based rank of one row, as its label would score.

    aps/raps/naive: mass above the rank + u * (mass at the rank) + penalty.
    lac: 1 - (mass at the rank); u is ignored.
    """
    k = ss.n_classes
    if not 1 <= rank <= k:
        raise ValueError(f"rank {rank} out of range [1, {k}]")
    one = ss.take(np.array([row]))
    return float(calibration_scores(one, one.perm[:, rank - 1], spec, u)[0])


def _score_base(srt: np.ndarray, cumsum: np.ndarray, method: str, u, out: np.ndarray) -> np.ndarray:
    """Score of every rank of some rows, before any rank penalty, into out.

    lac: 1 - (mass at the rank); u is ignored. Every other method: the aps
    score u * (mass at the rank) + (mass strictly above it), the latter
    being the exact prefix sum one rank back and nothing at rank 1. u is a
    scalar or one value per row as a column. Float addition commutes, so
    this equals rho + u * s bit for bit; at rank 1 only the sign of a zero
    can differ from 0.0 + u * s, which no comparison with a threshold sees.
    """
    if method == "lac":
        return np.subtract(1.0, srt, out=out)
    np.multiply(srt, u, out=out)
    out[:, 1:] += cumsum[:, :-1]
    return out


def calibration_scores(
    ss: SortedScores, labels: np.ndarray, spec: MethodSpec, u
) -> np.ndarray:
    """Conformity score of each row's true label; u is scalar or (n,)."""
    ranks = ss.label_ranks(labels)
    idx = ranks - 1
    rows = np.arange(ss.n)
    s = ss.sorted[rows, idx]
    if spec.method == "lac":
        return 1.0 - s
    rho = np.where(idx > 0, ss.cumsum[rows, np.maximum(idx - 1, 0)], 0.0)
    scores = rho + np.asarray(u, dtype=np.float64) * s
    pen = _penalty_vector(ss.n_classes, spec)
    return scores if pen is None else scores + pen[idx]


def calibrate(ss: SortedScores, labels: np.ndarray, spec: MethodSpec, seed: int = 0) -> ConformalModel:
    """Threshold selection on a calibration split.

    Randomized models draw one u per calibration row from the substream
    (seed, CAL_U), indexed by row, so results do not depend on row order;
    lac draws it too, and its score ignores it. Labels that are not one per
    row are a DataError from label_ranks. naive and fixed_k have no
    calibrated threshold and are rejected here.
    """
    if spec.method not in CALIBRATED_METHODS:
        raise ValueError(f"calibrate handles {CALIBRATED_METHODS}, not {spec.method!r}")
    n = ss.n
    if n < 1:
        raise DataError("empty calibration set")
    u = seeds.rng(seed, seeds.CAL_U).random(n) if spec.randomized else 1.0
    scores = calibration_scores(ss, labels, spec, u)
    tau = conformal_quantile(scores, spec.alpha)
    return ConformalModel(spec, tau, n, seed, ss.n_classes)


def naive_model(alpha: float, n_classes: int, randomized: bool = True) -> ConformalModel:
    """Uncalibrated model that thresholds cumulative mass at 1 - alpha."""
    spec = MethodSpec("naive", alpha, randomized=randomized)
    return ConformalModel(spec, 1.0 - alpha, 0, 0, n_classes)


def _naive_cut(srt: np.ndarray, cumsum: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's shortest prefix whose mass reaches tau, as a size, and the v
    at or under which a randomized u drops that prefix's last class."""
    n, k = srt.shape
    first = (cumsum < tau).sum(axis=1)
    first = np.minimum(first, k - 1)  # float shortfall guard: cap at the last rank
    rows = np.arange(n)
    mass = cumsum[rows, first]
    s_last = srt[rows, first]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(s_last > 0, (mass - tau) / s_last, 0.0)
    return first + 1, v


def set_sizes_many(models, ss: SortedScores, u=None) -> list[np.ndarray]:
    """Prediction-set size of every row under each model, in one pass.

    u is one uniform in [0, 1] per row, shared by every randomized model and
    ignored by the others. Returns one int64 array per model, in order. Sets
    are prefixes of the sorted order, so row i's set under models[j] is
    perm[i, :sizes[j][i]].

    Cost model: the models are grouped once by the score base they read:
    u * sorted plus the mass above each rank for randomized aps/raps, the
    same at u = 1 for deterministic ones, 1 - sorted for lac, and naive's
    own cutoff. The rows are walked in score_store._row_blocks' blocks. In
    each block a group takes a column-wise lower bound of its base (0 at
    rank 1, then the block's smallest C[j-1]; for lac 1 - max s_j). A
    model's cut c counts the columns whose bound plus its rank penalty is at
    most its threshold; the group builds its base up to its largest cut, and
    each model adds its penalty (raps only) and counts over its first c
    columns. So m models cost one bound pass per group, at most three base
    passes, and one add and one compare pass per model over the columns a
    threshold can reach, in three blocks of memory. fixed_k needs no scores.

    The cut is exact: rounding is monotone, so fl(u * s_j + C[j-1]) >= C[j-1]
    (u * s_j >= 0) and adding the penalty keeps the order; the fl prefix sum
    of nonnegative values, the penalty and -max s_j never decrease in j, so
    every column at or past c scores above the threshold in every block row.
    A row's size therefore depends on its own row alone, whatever the block.
    """
    models = tuple(models)
    if any(model.spec.randomized for model in models):
        if u is None:
            raise ValueError("randomized model needs one u per row")
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (ss.n,):
            raise ValueError(f"u must have shape ({ss.n},)")
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("u must be in [0, 1]")
    return _sizer(models, ss.n_classes)(ss, u)


def _sizer(models, k: int):
    """set_sizes_many's setup for a sequence of models of K classes, done
    once, and its step: step(ss, u) sizes the rows of one SortedScores under
    each model, u being one value in [0, 1] per row of ss, read by the
    randomized models only."""
    groups: dict[str, list] = {}
    for j, model in enumerate(models):
        if model.n_classes != k:
            raise DataError(
                f"model was calibrated for K={model.n_classes}, scores have K={k}"
            )
        spec = model.spec
        if spec.method != "fixed_k":
            mode = spec.method if spec.method in ("lac", "naive") else "u" if spec.randomized else "one"
            groups.setdefault(mode, []).append((j, model, _penalty_vector(k, spec)))

    # Flat buffers of one whole row block (the first of any longer walk), so
    # that a block cut to c columns is one contiguous (rows, c) array.
    cells = k * next(_row_blocks(sys.maxsize, k)).stop
    base, scratch = np.empty((2, cells))
    inside = np.empty(cells, dtype=bool)

    def step(ss: SortedScores, u=None) -> list[np.ndarray]:
        out = [np.empty(ss.n, dtype=np.int64) for _ in models]
        for model, sizes in zip(models, out):
            if model.spec.method == "fixed_k":
                u_fixed = u if model.spec.randomized else 1.0
                sizes[:] = np.where(u_fixed <= model.mix_prob, model.k_star - 1, model.k_star)
        for rows in _row_blocks(ss.n, k):
            h = rows.stop - rows.start
            srt, cumsum = ss.sorted[rows], ss.cumsum[rows]
            for mode, group in groups.items():
                if mode == "naive":
                    for j, model, _ in group:
                        out[j][rows], v = _naive_cut(srt, cumsum, model.tau_hat)
                        if model.spec.randomized:
                            out[j][rows] -= u[rows] <= v
                    continue
                lower = (1.0 - srt.max(axis=0) if mode == "lac"
                         else np.concatenate(([0.0], cumsum[:, :-1].min(axis=0))))
                cuts = [np.searchsorted(lower if pen is None else lower + pen, model.tau_hat,
                                        "right") for _, model, pen in group]
                width = max(cuts)
                at = u[rows, None] if mode == "u" else 1.0
                block = _score_base(srt[:, :width], cumsum[:, :width], mode, at,
                                    base[:h * width].reshape(h, width))
                for (j, model, pen), c in zip(group, cuts):
                    scores = (block[:, :c] if pen is None
                              else np.add(block[:, :c], pen[:c], out=scratch[:h * c].reshape(h, c)))
                    mask = np.less_equal(scores, model.tau_hat, out=inside[:h * c].reshape(h, c))
                    # A byte sum into int32 counts about twice as fast as count_nonzero.
                    out[j][rows] = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)
                    if mode == "one" and model.spec.boundary_inclusive:
                        np.minimum(out[j][rows] + 1, k, out=out[j][rows])
        return out

    return step


def set_sizes(model: ConformalModel, ss: SortedScores, u=None) -> np.ndarray:
    """Prediction-set size of every row, vectorized.

    u is one uniform per row for randomized methods, ignored otherwise.
    Sets are prefixes of the sorted order, so row i's set is
    perm[i, :sizes[i]]. This is :func:`set_sizes_many` for one model, so
    it walks the rows in the same blocks and holds no n x K temporary.
    """
    return set_sizes_many((model,), ss, u)[0]


def predict(model: ConformalModel, ss: SortedScores, row: int, u: float | None = None) -> PredictionSet:
    """Prediction set for one row.

    A randomized model needs u in [0, 1]; set_sizes_many refuses a missing
    or out-of-range u with ValueError. A deterministic model ignores u and
    records none.
    """
    u = u if model.spec.randomized else None
    u_arr = None if u is None else np.array([u])
    size = int(set_sizes(model, ss.take(np.array([row])), u_arr)[0])
    classes = tuple(ss.take(np.array([row])).perm[0, :size].tolist())  # that row's perm alone
    return PredictionSet(classes, u)


def set_size_given_u(model: ConformalModel, ss: SortedScores, row: int) -> tuple[int, int, float]:
    """Closed form of the randomization for one row.

    Returns (size_at_u0, size_at_u1, v): the sizes set_sizes gives the
    model's randomized twin at u = 0 and at u = 1 (a deterministic model's
    own sets ignore u), and the probability v of the first, so
    E[size] = v * size_at_u0 + (1 - v) * size_at_u1 without sampling. The
    two sizes differ by at most one; v = 1 when u does not matter. aps/raps
    keep the boundary class when u <= v, so their u = 0 set is the larger;
    naive drops it when u <= v, so its u = 0 set is the smaller.
    """
    spec = model.spec
    if spec.method == "fixed_k":
        raise ValueError("set_size_given_u does not apply to fixed_k")
    twin = replace(model, spec=replace(spec, randomized=True))
    pair = ss.take(np.array([row, row]))  # the row twice: sized at u = 0 and at u = 1
    size0, size1 = set_sizes(twin, pair, np.array([0.0, 1.0])).tolist()
    if size0 == size1:
        return size0, size1, 1.0
    if spec.method == "naive":
        v = _naive_cut(pair.sorted, pair.cumsum, model.tau_hat)[1][0]
    else:  # the sizes differ, so the boundary class has positive mass
        score = conformity_score(pair, 0, size0, 0.0, spec)
        v = (model.tau_hat - score) / pair.sorted[0, size0 - 1]
    return size0, size1, float(min(max(v, 0.0), 1.0))


# --- model files ----------------------------------------------------------

_BOOLS = {"true": True, "false": False}


def _flag(text: str) -> bool:
    if text not in _BOOLS:
        raise ValueError(f"must be true or false, got {text!r}")
    return _BOOLS[text]


# File key -> (MethodSpec or ConformalModel attribute, parser), in file order.
_MODEL_FIELDS = {
    "method": ("method", str),
    "alpha": ("alpha", float),
    "lambda": ("penalty", float),
    "k_reg": ("kreg", int),
    "randomized": ("randomized", _flag),
    "boundary_inclusive": ("boundary_inclusive", _flag),
    "tau_hat": ("tau_hat", float),
    "n_cal": ("n_cal", int),
    "seed": ("seed", int),
    "n_classes": ("n_classes", int),
    "k_star": ("k_star", int),
    "mix_prob": ("mix_prob", float),
}
# Keys a file may leave out; their attributes then keep the dataclass default.
_OPTIONAL_FIELDS = ("boundary_inclusive", "k_star", "mix_prob")


def save_model(model: ConformalModel, path: str) -> None:
    """Write a model as `key = value` lines, skipping fields that are None; round-trips exactly."""
    fields = {key: getattr(model.spec if attr in MethodSpec.__dataclass_fields__ else model, attr)
              for key, (attr, _) in _MODEL_FIELDS.items()}
    with open(path, "w") as fh:
        fh.write(_kv({key: val for key, val in fields.items() if val is not None}))


def load_model(path: str) -> ConformalModel:
    """Read a model written by save_model; any malformed, unknown, repeated,
    missing or bad field is a DataError."""
    fields: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}: malformed model line {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _MODEL_FIELDS:
                raise DataError(f"{path}: unknown model field {key!r}")
            if key in fields:
                raise DataError(f"{path}: repeated model field {key!r}")
            fields[key] = val.strip()
    spec_args, model_args = {}, {}
    for key, (attr, parse) in _MODEL_FIELDS.items():
        if key not in fields:
            if key in _OPTIONAL_FIELDS:
                continue
            raise DataError(f"{path}: missing model field {key!r}")
        args = spec_args if attr in MethodSpec.__dataclass_fields__ else model_args
        try:
            args[attr] = parse(fields[key])
        except ValueError as exc:
            raise DataError(f"{path}: bad model field {key!r} ({exc})") from None
    try:
        return ConformalModel(MethodSpec(**spec_args), **model_args)
    except ValueError as exc:
        raise DataError(f"{path}: bad model field ({exc})") from None


def as_deterministic(model: ConformalModel) -> ConformalModel:
    """Same thresholds, u pinned to 1 (prediction-side only)."""
    return replace(model, spec=replace(model.spec, randomized=False))
