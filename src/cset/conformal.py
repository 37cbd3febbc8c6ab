"""Conformal prediction sets over sorted probability rows.

Methods
-------
naive
    Shortest prefix of the sorted row whose mass reaches 1 - alpha, with a
    randomized removal of the boundary class. No calibration step.
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
        if self.spec.method == "fixed_k":
            if self.k_star is None or self.mix_prob is None:
                raise ValueError("fixed_k model requires k_star and mix_prob")
            if not 1 <= self.k_star <= self.n_classes:
                raise ValueError(f"k_star {self.k_star} out of range [1, {self.n_classes}]")
            if not 0.0 <= self.mix_prob <= 1.0:
                raise ValueError(f"mix_prob must be in [0, 1], got {self.mix_prob}")


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
    s = ss.sorted[row, rank - 1]
    if spec.method == "lac":
        return float(1.0 - s)
    rho = ss.cumsum[row, rank - 2] if rank >= 2 else 0.0
    pen = spec.penalty * max(rank - spec.kreg, 0)
    return float(rho + u * s + pen)


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
    pen = spec.penalty * np.maximum(ranks - spec.kreg, 0)
    return rho + np.asarray(u, dtype=np.float64) * s + pen


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


def _naive_sizes(srt: np.ndarray, cumsum: np.ndarray, spec: MethodSpec, u) -> np.ndarray:
    target = 1.0 - spec.alpha
    n, k = srt.shape
    first = (cumsum < target).sum(axis=1)
    first = np.minimum(first, k - 1)  # float shortfall guard: cap at the last rank
    rows = np.arange(n)
    sizes = first + 1
    if spec.randomized:
        mass = cumsum[rows, first]
        s_last = srt[rows, first]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(s_last > 0, (mass - target) / s_last, 0.0)
        drop = np.asarray(u, dtype=np.float64) <= v
        sizes = sizes - drop.astype(np.int64)
    return sizes


def set_sizes_many(models, ss: SortedScores, u=None) -> list[np.ndarray]:
    """Prediction-set size of every row under each model, in one pass.

    u is one uniform per row, shared by every randomized model and ignored
    by the others. Returns one int64 array per model, in order. Sets are
    prefixes of the sorted order, so row i's set under models[j] is
    perm[i, :sizes[j][i]].

    Cost model: the rows are walked in blocks of about _SIZE_BLOCK_CELLS
    cells. In each block the score base is built once per u-mode, and only
    if some model needs it: u * sorted plus the mass above each rank for
    randomized aps/raps, the same at u = 1 for deterministic ones, and
    1 - sorted for lac. Each model then adds its rank penalty (raps with a
    nonzero penalty only) into one scratch block and counts the ranks whose
    score is at most its threshold. So m models cost at most three base
    passes plus one add and one compare pass per model over the n x K
    scores, and the extra memory is a few blocks, not n x K. naive and
    fixed_k need no score matrix.
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
    scored = []
    for model, sizes in zip(models, out):
        spec = model.spec
        if spec.method == "fixed_k":
            u_fixed = u_rows if spec.randomized else 1.0
            sizes[:] = np.where(u_fixed <= model.mix_prob, model.k_star - 1, model.k_star)
        else:
            scored.append((model, sizes, _penalty_vector(k, spec)))

    rows = max(1, _SIZE_BLOCK_CELLS // k)
    buffers: dict[str, np.ndarray] = {}

    def buffer(name: str, used: int, dtype=np.float64) -> np.ndarray:
        # One block-sized array per name, made on first use, reused after.
        if name not in buffers:
            buffers[name] = np.empty((min(rows, n), k), dtype=dtype)
        return buffers[name][:used]

    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        srt, cumsum = ss.sorted[lo:hi], ss.cumsum[lo:hi]
        u_block = u_rows[lo:hi] if u_rows is not None else None
        bases: dict[str, np.ndarray] = {}
        for model, sizes, pen in scored:
            spec = model.spec
            if spec.method == "naive":
                sizes[lo:hi] = _naive_sizes(srt, cumsum, spec, u_block)
                continue
            mode = "lac" if spec.method == "lac" else "u" if spec.randomized else "one"
            if mode not in bases:
                at = u_block[:, None] if mode == "u" else 1.0
                bases[mode] = _score_base(srt, cumsum, spec.method, at, buffer(mode, hi - lo))
            scores = _add_penalty(bases[mode], pen, buffer("penalized", hi - lo))
            inside = np.less_equal(scores, model.tau_hat, out=buffer("inside", hi - lo, bool))
            # A byte sum into int32 counts about twice as fast as count_nonzero.
            sizes[lo:hi] = np.add.reduce(inside.view(np.uint8), axis=1, dtype=np.int32)

    for model, sizes, _ in scored:
        spec = model.spec
        if spec.boundary_inclusive and not spec.randomized and spec.method in ("aps", "raps"):
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

    Returns (size_at_u0, size_at_u1, v): the set sizes at the two extremes
    of u and the inclusion probability v of the boundary class, so
    E[size] = v * size_at_u0 + (1 - v) * size_at_u1 without sampling.
    The two sizes differ by at most one; v = 1 when u does not matter.
    naive is evaluated in the same score form, with threshold 1 - alpha.
    """
    spec = model.spec
    if spec.method == "fixed_k":
        raise ValueError("set_size_given_u does not apply to fixed_k")
    one = ss.take(np.array([row]))
    if spec.method == "naive":
        spec = MethodSpec("aps", spec.alpha, randomized=spec.randomized)
        tau = 1.0 - spec.alpha
    else:
        tau = model.tau_hat
    pen = _penalty_vector(one.n_classes, spec)

    def scores(at: float) -> np.ndarray:
        base = _score_base(one.sorted, one.cumsum, spec.method, at, np.empty_like(one.sorted))
        return _add_penalty(base, pen, out=base)[0]

    s0, s1 = scores(0.0), scores(1.0)
    size0 = int((s0 <= tau).sum())
    size1 = int((s1 <= tau).sum())
    if size0 == size1:
        return size0, size1, 1.0
    b = size0 - 1  # 0-based index of the boundary rank
    s_b = one.sorted[0, b]
    v = (tau - s0[b]) / s_b if s_b > 0 else 1.0
    return size0, size1, float(min(max(v, 0.0), 1.0))


# --- model files ----------------------------------------------------------

_BOOLS = {"true": True, "false": False}
_MODEL_KEYS = ("method", "alpha", "lambda", "k_reg", "randomized", "boundary_inclusive",
               "tau_hat", "n_cal", "seed", "n_classes", "k_star", "mix_prob")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "inf" if math.isinf(v) else repr(v)
    return str(v)


def save_model(model: ConformalModel, path: str) -> None:
    """Write a model as `key = value` lines; round-trips exactly."""
    spec = model.spec
    lines = [
        ("method", spec.method),
        ("alpha", spec.alpha),
        ("lambda", spec.penalty),
        ("k_reg", spec.kreg),
        ("randomized", spec.randomized),
        ("boundary_inclusive", spec.boundary_inclusive),
        ("tau_hat", model.tau_hat),
        ("n_cal", model.n_cal),
        ("seed", model.seed),
        ("n_classes", model.n_classes),
    ]
    if model.k_star is not None:
        lines.append(("k_star", model.k_star))
    if model.mix_prob is not None:
        lines.append(("mix_prob", model.mix_prob))
    with open(path, "w") as fh:
        for key, val in lines:
            fh.write(f"{key} = {_fmt(val)}\n")


def _load_flag(fields: dict, key: str, default: str | None = None) -> bool:
    val = fields[key] if default is None else fields.get(key, default)
    if val not in _BOOLS:
        raise ValueError(f"{key} must be true or false, got {val!r}")
    return _BOOLS[val]


def load_model(path: str) -> ConformalModel:
    """Read a model written by save_model; any malformed, unknown or repeated
    field is a DataError."""
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
            if key not in _MODEL_KEYS:
                raise DataError(f"{path}: unknown model field {key!r}")
            if key in fields:
                raise DataError(f"{path}: repeated model field {key!r}")
            fields[key] = val.strip()
    try:
        spec = MethodSpec(
            method=fields["method"],
            alpha=float(fields["alpha"]),
            penalty=float(fields["lambda"]),
            kreg=int(fields["k_reg"]),
            randomized=_load_flag(fields, "randomized"),
            boundary_inclusive=_load_flag(fields, "boundary_inclusive", "false"),
        )
        return ConformalModel(
            spec=spec,
            tau_hat=float(fields["tau_hat"]),
            n_cal=int(fields["n_cal"]),
            seed=int(fields["seed"]),
            n_classes=int(fields["n_classes"]),
            k_star=int(fields["k_star"]) if "k_star" in fields else None,
            mix_prob=float(fields["mix_prob"]) if "mix_prob" in fields else None,
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing model field {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: bad model field ({exc})") from None


def as_deterministic(model: ConformalModel) -> ConformalModel:
    """Same thresholds, u pinned to 1 (prediction-side only)."""
    return replace(model, spec=replace(model.spec, randomized=False))
