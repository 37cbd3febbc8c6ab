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
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import seeds
from .score_store import DataError, ScoreMatrix, SortedScores

METHODS = ("naive", "aps", "raps", "lac", "fixed_k")
CALIBRATED_METHODS = ("aps", "raps", "lac")
# Cells per row block of set_sizes_many (512 KB of float64 per buffer).
_SIZE_BLOCK_CELLS = 1 << 16


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
    """Score of the class at the given 1-based rank of one row.

    aps/raps/naive: mass above the rank + u * (mass at the rank) + penalty.
    lac: 1 - (mass at the rank); u is ignored.
    """
    k = ss.n_classes
    if not 1 <= rank <= k:
        raise ValueError(f"rank {rank} out of range [1, {k}]")
    srt, cumsum = ss.sorted[[row]], ss.cumsum[[row]]
    base = _score_base(srt, cumsum, spec.method, u, np.empty_like(srt))
    return float(_add_penalty(base, _penalty_vector(k, spec), base)[0, rank - 1])


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


def _add_penalty(base: np.ndarray, pen: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """base plus a model's rank penalty, into out; base itself when pen is None."""
    return base if pen is None else np.add(base, pen, out=out)


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

    Randomized aps/raps draw one u per calibration row from the substream
    (seed, CAL_U), indexed by row, so results do not depend on row order.
    lac never uses u. naive and fixed_k have no calibrated threshold and are
    rejected here.
    """
    if spec.method not in CALIBRATED_METHODS:
        raise ValueError(f"calibrate handles {CALIBRATED_METHODS}, not {spec.method!r}")
    n = ss.n
    if n < 1:
        raise DataError("empty calibration set")
    if len(labels) != n:
        raise DataError("labels must match the calibration rows")
    if spec.randomized and spec.method != "lac":
        u = seeds.rng(seed, seeds.CAL_U).random(n)
    else:
        u = 1.0
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


def _naive_sizes(srt: np.ndarray, cumsum: np.ndarray, tau: float, randomized: bool, u) -> np.ndarray:
    sizes, v = _naive_cut(srt, cumsum, tau)
    return sizes - (np.asarray(u, dtype=np.float64) <= v) if randomized else sizes


def set_sizes_many(models, ss: SortedScores, u=None) -> list[np.ndarray]:
    """Prediction-set size of every row under each model, in one pass.

    u is one uniform per row, shared by every randomized model and ignored
    by the others. Returns one int64 array per model, in order. Sets are
    prefixes of the sorted order, so row i's set under models[j] is
    perm[i, :sizes[j][i]].

    Cost model: the models are grouped once by the score base they read:
    u * sorted plus the mass above each rank for randomized aps/raps, the
    same at u = 1 for deterministic ones, 1 - sorted for lac, and naive's
    own cutoff. The rows are walked in blocks of about _SIZE_BLOCK_CELLS
    cells; in each block every group builds its base once into one buffer,
    and each of its models adds its rank penalty (raps with a nonzero
    penalty only) into one scratch block and counts the ranks whose score
    is at most its threshold. So m models cost at most three base passes
    plus one add and one compare pass per model over the n x K scores, and
    the extra memory is three blocks, not n x K. fixed_k needs no scores.
    """
    models = tuple(models)
    n, k = ss.n, ss.n_classes
    u_rows = None
    for model in models:
        if model.n_classes != k:
            raise DataError(
                f"model was calibrated for K={model.n_classes}, scores have K={k}"
            )
        if model.spec.randomized and u_rows is None:
            if u is None:
                raise ValueError("randomized model needs one u per row")
            u_rows = np.asarray(u, dtype=np.float64)
            if u_rows.shape != (n,):
                raise ValueError(f"u must have shape ({n},)")

    out = [np.empty(n, dtype=np.int64) for _ in models]
    groups: dict[str, list] = {}
    for model, sizes in zip(models, out):
        spec = model.spec
        if spec.method == "fixed_k":
            u_fixed = u_rows if spec.randomized else 1.0
            sizes[:] = np.where(u_fixed <= model.mix_prob, model.k_star - 1, model.k_star)
            continue
        mode = spec.method if spec.method in ("lac", "naive") else "u" if spec.randomized else "one"
        groups.setdefault(mode, []).append((model, sizes, _penalty_vector(k, spec)))

    rows = max(1, _SIZE_BLOCK_CELLS // k)
    base, scratch = np.empty((2, min(rows, n), k))
    inside = np.empty((min(rows, n), k), dtype=bool)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        srt, cumsum = ss.sorted[lo:hi], ss.cumsum[lo:hi]
        u_block = u_rows[lo:hi] if u_rows is not None else None
        for mode, group in groups.items():
            if mode == "naive":
                for model, sizes, _ in group:
                    sizes[lo:hi] = _naive_sizes(srt, cumsum, model.tau_hat,
                                                model.spec.randomized, u_block)
                continue
            at = u_block[:, None] if mode == "u" else 1.0
            block = _score_base(srt, cumsum, mode, at, base[:hi - lo])
            for model, sizes, pen in group:
                scores = _add_penalty(block, pen, scratch[:hi - lo])
                mask = np.less_equal(scores, model.tau_hat, out=inside[:hi - lo])
                # A byte sum into int32 counts about twice as fast as count_nonzero.
                sizes[lo:hi] = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)

    for model, sizes, _ in groups.get("one", ()):
        if model.spec.boundary_inclusive:
            np.minimum(sizes + 1, k, out=sizes)
    return out


def set_sizes(model: ConformalModel, ss: SortedScores, u=None) -> np.ndarray:
    """Prediction-set size of every row, vectorized.

    u is one uniform per row for randomized methods, ignored otherwise.
    Sets are prefixes of the sorted order, so row i's set is
    perm[i, :sizes[i]]. This is :func:`set_sizes_many` for one model, so
    it walks the rows in the same blocks and holds no n x K temporary.
    """
    return set_sizes_many((model,), ss, u)[0]


def predict(model: ConformalModel, ss: SortedScores, row: int, u: float | None = None) -> PredictionSet:
    """Prediction set for one row; u must be supplied when randomized."""
    if model.spec.randomized:
        if u is None:
            raise ValueError("randomized model needs u in [0, 1]")
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u must be in [0, 1], got {u}")
        u_arr = np.array([u])
    else:
        u = None
        u_arr = None
    size = int(set_sizes(model, ss.take(np.array([row])), u_arr)[0])
    classes = tuple(int(c) for c in ss.perm[row, :size])
    return PredictionSet(classes, u)


def set_size_given_u(model: ConformalModel, ss: SortedScores, row: int) -> tuple[int, int, float]:
    """Closed form of the randomization for one row.

    Returns (size_at_u0, size_at_u1, v): the sizes set_sizes gives the
    randomized model at u = 0 and at u = 1, and the probability v of the
    first, so E[size] = v * size_at_u0 + (1 - v) * size_at_u1 without
    sampling. The two sizes differ by at most one; v = 1 when u does not
    matter. aps/raps keep the boundary class when u <= v, so their u = 0
    set is the larger; naive drops it when u <= v, so its u = 0 set is the
    smaller.
    """
    spec, tau = model.spec, model.tau_hat
    if spec.method == "fixed_k":
        raise ValueError("set_size_given_u does not apply to fixed_k")
    one = ss.take(np.array([row]))
    if spec.method == "naive":
        size0, size1 = _naive_sizes(one.sorted, one.cumsum, tau, True,
                                    np.array([0.0, 1.0])).tolist()
        v = _naive_cut(one.sorted, one.cumsum, tau)[1][0]
    else:
        # Row 0 scores the row at u = 0, row 1 at u = 1.
        base = _score_base(one.sorted, one.cumsum, spec.method, np.array([[0.0], [1.0]]),
                           np.empty((2, one.n_classes)))
        scores = _add_penalty(base, _penalty_vector(one.n_classes, spec), base)
        size0, size1 = (scores <= tau).sum(axis=1).tolist()
        b = size0 - 1  # 0-based index of the boundary rank
        s_b = one.sorted[0, b]
        v = (tau - scores[0, b]) / s_b if s_b > 0 else 1.0
    if size0 == size1:
        return size0, size1, 1.0
    return size0, size1, float(min(max(v, 0.0), 1.0))


# --- model files ----------------------------------------------------------

_BOOLS = {"true": True, "false": False}


def _flag(text: str) -> bool:
    if text not in _BOOLS:
        raise ValueError(f"must be true or false, got {text!r}")
    return _BOOLS[text]


def _fmt(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


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
    with open(path, "w") as fh:
        for key, (attr, _) in _MODEL_FIELDS.items():
            val = getattr(model.spec if attr in MethodSpec.__dataclass_fields__ else model, attr)
            if val is not None:
                fh.write(f"{key} = {_fmt(val)}\n")


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
