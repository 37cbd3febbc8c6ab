"""Multi-trial evaluation protocol.

Each trial re-splits the data (or draws fresh synthetic data), optionally
temperature-scales logits, optionally tunes the raps knobs on the tuning
split, calibrates on the calibration split, and measures everything on the
evaluation split. Per-trial seeds are derived from the master seed and the
trial index alone, so trials are independent of execution order and safe to
parallelize; all methods inside one trial share the same splits and the same
per-row randomization variates. A trial sorts the tuning and calibration
splits once and the evaluation split one row block at a time, and one
set_sizes_many setup sizes every method's sets block by block, so adding a
method to a trial costs its fit and its counts over the ranks its threshold
can reach, not another sort; past run_trials_multi's n_full, a method gets
no report tables, only its mean size.

Summary numbers are medians across trials of per-trial means (median of
means), which keeps a single weird split from dominating the summary.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .conformal import MethodSpec
from .metrics import DifficultyRow, EvalReport, StratumRow, _validate_strata, evaluate_models
from .platt import fit_temperature
from .score_store import ScoreMatrix, SortedScores, SplitSpec, _LabelCells, softmax, sort_scores, split
from .synth import SynthSpec, _stream, generate
from .tuning import TUNE_OBJECTIVES, fit_model, tune

PLATT_SPLITS = ("calibration", "tuning")


@dataclass(frozen=True)
class TrialProtocol:
    """Split sizes and shared evaluation settings for a batch of trials."""

    n_trials: int
    cal_size: int
    eval_size: int
    tune_size: int = 0
    seed: int = 0
    platt_split: str = "calibration"
    strata: tuple | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.platt_split not in PLATT_SPLITS:
            raise ValueError(f"platt_split must be one of {PLATT_SPLITS}")
        if self.strata is not None:
            _validate_strata(self.strata)


@dataclass(frozen=True)
class MethodPolicy:
    """A method spec plus (optionally) how to tune it per trial."""

    spec: MethodSpec
    tune_objective: str | None = None  # None, "size", or "adaptiveness"
    lambda_grid: tuple | None = None

    def __post_init__(self) -> None:
        if self.tune_objective not in (None, *TUNE_OBJECTIVES):
            raise ValueError(f"unknown tune objective {self.tune_objective!r}")
        if self.tune_objective is not None and self.spec.method != "raps":
            raise ValueError("tuning applies to raps only")


@dataclass
class TrialAggregate:
    """Per-trial metric vectors plus pooled tables."""

    n_trials: int
    coverage: np.ndarray
    avg_size: np.ndarray
    sscv: np.ndarray
    top1: np.ndarray
    top5: np.ndarray
    penalties: np.ndarray
    kregs: np.ndarray
    size_hist: dict
    per_stratum: tuple
    per_difficulty: tuple

    @property
    def median_coverage(self) -> float:
        return float(np.median(self.coverage))

    @property
    def median_size(self) -> float:
        return float(np.median(self.avg_size))

    @property
    def median_sscv(self) -> float:
        return float(np.median(self.sscv))


def _median(values) -> float | None:
    """Median of the trials whose row was nonempty; None if none was."""
    kept = [v for v in values if v is not None]
    return float(np.median(kept)) if kept else None


def _aggregate(results: list[tuple[EvalReport, MethodSpec]]) -> TrialAggregate:
    """Pool one method's trials. Every trial of a run measures the same strata
    and difficulty bins in the same order, so their rows pool by position."""
    reports = [report for report, _ in results]
    hist = sum((Counter(r.size_hist) for r in reports), Counter())
    per_stratum = tuple(
        StratumRow(rows[0].lo, rows[0].hi, sum(row.count for row in rows),
                   _median(row.coverage for row in rows))
        for rows in zip(*(r.per_stratum for r in reports))
    )
    per_difficulty = tuple(
        DifficultyRow(rows[0].lo, rows[0].hi, sum(row.count for row in rows),
                      _median(row.coverage for row in rows),
                      _median(row.avg_size for row in rows))
        for rows in zip(*(r.per_difficulty for r in reports))
    )

    def arr(values):
        return np.array(list(values), dtype=np.float64)

    return TrialAggregate(
        n_trials=len(results),
        coverage=arr(r.coverage for r in reports),
        avg_size=arr(r.avg_size for r in reports),
        sscv=arr(r.sscv for r in reports),
        top1=arr(r.top1 for r in reports),
        top5=arr(r.top5 for r in reports),
        penalties=arr(spec.penalty for _, spec in results),
        kregs=arr(spec.kreg for _, spec in results),
        size_hist=dict(sorted(hist.items())),
        per_stratum=per_stratum,
        per_difficulty=per_difficulty,
    )


def _run_trial(
    draw, trial_seed: int, protocol: TrialProtocol, policies: dict[Hashable, MethodPolicy],
    n_full: int | None,
) -> dict[Hashable, tuple[EvalReport | float, MethodSpec]]:
    """Draw one trial's splits, fit every policy, and measure every model.

    In the protocol's order: fit the temperature on the platt_split split
    and softmax, sort the tuning split if some policy tunes, rank the
    calibration labels once into a _LabelCells from their split's sort
    (dropped at once), tune and fit each policy on those, drop the tuning
    sort, and measure every model in one evaluate_models call (past n_full,
    by mean size only), which softmaxes and sorts the evaluation split one
    row block at a time. All is released before the next trial's draw.
    """
    tune_m, cal_m, eval_m = draw(trial_seed)
    tunes = any(policy.tune_objective is not None for policy in policies.values())
    if tunes and tune_m is None:
        raise ValueError("tuning requested but the tuning split is empty: "
                         "give it rows (tune_size > 0) or fix the raps penalty")
    temperature = None
    if cal_m.kind == "logits":
        if protocol.platt_split == "tuning" and tune_m is None:
            raise ValueError("platt_split='tuning' needs a tuning split")
        fit_on = tune_m if protocol.platt_split == "tuning" else cal_m
        temperature = fit_temperature(fit_on).temperature

    def sort_rows(m: ScoreMatrix, part: int, lo: int = 0) -> SortedScores:
        if temperature is not None:
            m = softmax(m, temperature)
        return sort_scores(m, seeds.child_seed(trial_seed, seeds.SORT, part), first_row=lo)

    ss_tune, y_tune = (sort_rows(tune_m, 0), tune_m.labels) if tunes else (None, None)
    cal = _LabelCells(cal_m.labels, *sort_rows(cal_m, 1).label_cells(cal_m.labels), cal_m.n_classes)
    del tune_m, cal_m  # free the matrices; the fits need only ss_tune and cal

    models = []
    for policy in policies.values():
        spec = policy.spec
        if policy.tune_objective is not None:
            res = tune(ss_tune, y_tune, spec.alpha, policy.tune_objective, policy.lambda_grid,
                       seeds.child_seed(trial_seed, seeds.TUNE), protocol.strata)
            spec = replace(spec, penalty=res.penalty, kreg=res.kreg)
        models.append(fit_model(cal, cal.labels, spec, trial_seed))
    del ss_tune  # freed before the evaluation walk
    blocks = (sort_rows(block, 2, lo) for lo, block in eval_m.blocks())
    reports = evaluate_models(models, blocks, eval_m.labels, trial_seed, protocol.strata, n_full)
    return {name: (report, model.spec) for name, model, report in zip(policies, models, reports)}


def _run_trials(draw, protocol: TrialProtocol, policies: dict[Hashable, MethodPolicy],
                n_full: int | None = None) -> dict:
    """The trial loop; draw(trial_seed) gives (tuning, calibration, evaluation).
    Each policy past the first n_full keeps only its per-trial mean set sizes."""
    results: dict[Hashable, list] = {name: [] for name in policies}
    for t in range(protocol.n_trials):
        trial_seed = seeds.child_seed(protocol.seed, seeds.TRIAL, t)
        for name, measured in _run_trial(draw, trial_seed, protocol, policies, n_full).items():
            results[name].append(measured)
    return {name: np.array([mean for mean, _ in rs]) if n_full is not None and i >= n_full
            else _aggregate(rs) for i, (name, rs) in enumerate(results.items())}


def run_trials_multi(
    m: ScoreMatrix, protocol: TrialProtocol, policies: dict[Hashable, MethodPolicy],
    n_full: int | None = None,
) -> dict[Hashable, TrialAggregate | np.ndarray]:
    """Random re-splits of one fixed matrix; methods share each trial's data.
    Past the first n_full policies (all by default) each name maps to just
    the avg_size array its TrialAggregate would hold, bit for bit."""

    def draw(trial_seed: int):
        spec = SplitSpec(
            seed=trial_seed,
            sizes=(protocol.tune_size, protocol.cal_size, protocol.eval_size),
        )
        tune_m, cal_m, eval_m = split(m, spec)
        if cal_m is None or eval_m is None:
            raise ValueError("calibration and evaluation splits must be nonempty")
        return tune_m, cal_m, eval_m

    return _run_trials(draw, protocol, policies, n_full)


def run_trials(m: ScoreMatrix, protocol: TrialProtocol, policy: MethodPolicy) -> TrialAggregate:
    """Single-policy convenience wrapper around run_trials_multi."""
    return run_trials_multi(m, protocol, {"method": policy})["method"]


def run_synth_trials(
    sspec: SynthSpec, protocol: TrialProtocol, policies: dict[str, MethodPolicy]
) -> dict[str, TrialAggregate]:
    """Fresh synthetic data every trial (the honest protocol for coverage
    claims: the guarantee is marginal over calibration and test draws, and a
    fixed pool would freeze its own sampling noise into every trial). A trial
    holds its tuning and calibration rows as one matrix and reads its
    evaluation rows from the generator one row block at a time."""
    for s in (protocol.tune_size, protocol.cal_size, protocol.eval_size):
        if isinstance(s, float):
            raise ValueError("synthetic trials need absolute split sizes")
    if protocol.cal_size < 1 or protocol.eval_size < 1:
        raise ValueError("calibration and evaluation splits must be nonempty")
    n_total = protocol.tune_size + protocol.cal_size + protocol.eval_size
    a, b = protocol.tune_size, protocol.tune_size + protocol.cal_size

    def draw(trial_seed: int):
        data_spec = replace(
            sspec, n=n_total, seed=seeds.child_seed(trial_seed, seeds.SYNTH)
        )
        head = generate(replace(data_spec, n=b))[1]  # the first b rows of the draw
        tune_m = head.take(slice(a)) if a > 0 else None
        return tune_m, head.take(slice(a, b)), _stream(data_spec, b)

    return _run_trials(draw, protocol, policies)
