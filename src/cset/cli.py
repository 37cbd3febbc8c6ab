"""Command-line interface.

Subcommands cover the whole pipeline: ingest/validate score files, generate
synthetic data, fit a temperature, tune the raps knobs, calibrate, predict,
evaluate, and run multi-trial experiments. Flags override values from a JSON
--config file, which override built-in defaults; the final configuration is
echoed into the output directory. Exit codes: 2 for usage or bad parameter
values, 1 for missing or malformed data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import seeds
from .conformal import MethodSpec, METHODS, _sizer, load_model, save_model
from .metrics import _validate_strata, evaluate_model
from .platt import DEFAULT_BOUNDS, DEFAULT_TOL, fit_temperature
from .reports import (
    _csv,
    difficulty_csv,
    hist_csv,
    render_difficulty_table,
    render_method_table,
    render_strata_table,
    render_sweep,
    strata_csv,
    summary_csv,
    sweep_csv,
)
from .score_store import (
    DataError,
    ScoreMatrix,
    _kv,
    _LabelCells,
    load_scores,
    open_scores,
    save_scores,
    softmax,
    sort_scores,
)
from .synth import CORRUPTIONS, SynthSpec, _observed, generate
from .trials import MethodPolicy, TrialProtocol, run_trials_multi
from .tuning import TUNE_OBJECTIVES, fit_model, tune

SWEEP_LAMBDAS = (0.0, 0.0001, 0.001, 0.01, 0.02, 0.05, 0.2, 0.5, 0.7, 1.0)
SWEEP_KREGS = (1, 2, 5, 10, 50)


# --- argument types -------------------------------------------------------

def _number(convert, ok, wording: str):
    """An argparse type: convert, then refuse what `ok` rejects. It takes
    convert's name, so argparse's message for a non-number names a type."""
    def parse(s: str):
        v = convert(s)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"{wording}, got {s}")
        return v
    parse.__name__ = convert.__name__
    return parse


_alpha = _number(float, lambda v: 0.0 < v < 1.0, "alpha must be in (0, 1)")
_pos_float = _number(float, lambda v: 0 < v < math.inf, "expected a positive finite number")
_nonneg_float = _number(float, lambda v: 0 <= v < math.inf, "expected a nonnegative finite number")
_pos_int = _number(int, lambda v: v > 0, "expected a positive integer")
_nonneg_int = _number(int, lambda v: v >= 0, "expected a nonnegative integer")


def _lambda_grid(s: str) -> tuple:
    try:
        vals = tuple(_nonneg_float(p) for p in s.split(",") if p.strip())
    except (ValueError, argparse.ArgumentTypeError):
        vals = ()
    if not vals:
        raise argparse.ArgumentTypeError(f"bad lambda grid {s!r}")
    return vals


def _strata(s: str) -> tuple:
    out = []
    try:
        for part in s.split(","):
            lo, dash, hi = part.partition("-")  # "2" is 2-2; "2-" is refused
            out.append((int(lo), int(hi if dash else lo)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad strata {s!r}, expected like 0-1,2-3,4-10") from None
    try:
        return _validate_strata(out)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _method_list(s: str) -> tuple:
    names = tuple(p.strip() for p in s.split(",") if p.strip())
    for i, n in enumerate(names):
        if n not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {n!r}")
        if n in names[:i]:
            raise argparse.ArgumentTypeError(f"method {n!r} is named twice")
    if not names:
        raise argparse.ArgumentTypeError("empty method list")
    return names


# --- output helpers -------------------------------------------------------

def _out(outdir: str, name: str) -> str:
    """Path of the output file `name`, creating `outdir` if needed."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _flag_text(value):
    """A parsed value as its flag spells it: tuples comma-joined, strata as lo-hi."""
    if not isinstance(value, tuple):
        return value
    return ",".join("-".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)


def _echo_config(args: argparse.Namespace) -> None:
    """Write the flag values as a config that --config can replay."""
    if not args.out:  # ingest's --out is optional
        return
    skip = {"func", "config", "command"}
    d = {k: _flag_text(v) for k, v in vars(args).items() if k not in skip and v is not None}
    text = json.dumps(d, indent=2, sort_keys=True) + "\n"
    Path(_out(args.out, "config_used.json")).write_text(text)


def _write_tables(outdir: str, result, suffix: str = "") -> None:
    """The size histogram, strata and difficulty CSVs of one report or aggregate."""
    for kind, render in (("hist", hist_csv), ("strata", strata_csv),
                         ("difficulty", difficulty_csv)):
        Path(_out(outdir, f"{kind}{suffix}.csv")).write_text(render(result))


def _open_probabilities(args, model=None):
    """--input as open_scores gives it, and a generator of its (first row, probability block),
    logits softmaxed at --temperature (given for logits only); it reads nothing until started.
    A model of another K than the input's is refused here, before any block is read."""
    scores = open_scores(args.input)
    if scores.kind == "probabilities":
        if args.temperature is not None:
            raise ValueError("--temperature only applies to logit inputs")
    elif args.temperature is None:
        raise DataError(
            "input holds logits; fit a temperature with fit-temp and pass --temperature"
        )
    if model is not None and model.n_classes != scores.n_classes:
        raise DataError(
            f"model was calibrated for K={model.n_classes}, scores have K={scores.n_classes}"
        )

    def walk():
        for lo, block in scores.blocks():
            if block.kind == "logits":
                block = softmax(block, args.temperature)  # the logit block is not held past here
            yield lo, block

    return scores, walk()


def _load_sorted(args):
    """(labels, SortedScores) of --input: a probability CSV sorted as loaded,
    any other input's probability blocks joined, then sorted."""
    scores, blocks = _open_probabilities(args)
    if isinstance(scores, ScoreMatrix) and scores.kind == "probabilities":
        m = scores
    else:
        probs = np.empty((scores.n, scores.n_classes))
        for lo, block in blocks:
            probs[lo:lo + block.n] = block.scores
        m = ScoreMatrix._trusted(probs, scores.labels, "probabilities")
    return scores.labels, sort_scores(m, args.seed)


def _synth_spec(args, n: int, k: int) -> SynthSpec:
    """SynthSpec for n rows of k classes; a synth flag not given keeps its default."""
    given = {f: getattr(args, f) for f in ("concentration", "corruption", "corruption_param")
             if getattr(args, f) is not None}
    return SynthSpec(n=n, n_classes=k, seed=args.seed, **given)


# --- subcommands ----------------------------------------------------------

def cmd_ingest(args) -> int:
    m = load_scores(args.input)
    print(f"n={m.n} K={m.n_classes} kind={m.kind}")
    if args.out:
        ext = "csv" if args.to == "csv" else "bin"
        path = _out(args.out, f"scores.{ext}")
        save_scores(m, path, args.to)
        print(f"wrote {path}")
    return 0


def cmd_synth(args) -> int:
    spec = _synth_spec(args, args.n, args.k)
    truth, observed = generate(spec)
    save_scores(observed, _out(args.out, "observed.bin"), "binary")
    save_scores(truth, _out(args.out, "true_probs.bin"), "binary")
    print(f"wrote {args.out}/observed.bin and true_probs.bin (n={spec.n}, K={spec.n_classes})")
    return 0


def cmd_fit_temp(args) -> int:
    m = load_scores(args.input)
    if m.kind != "logits":
        raise DataError("fit-temp expects a logits file")
    fit = fit_temperature(m, (args.t_lo, args.t_hi), args.t_tol)
    Path(_out(args.out, "temperature.txt")).write_text(_kv(dataclasses.asdict(fit)))
    print(f"temperature={fit.temperature:.6g} nll {fit.nll_before:.6g} -> {fit.nll_after:.6g}")
    return 0


def cmd_tune(args) -> int:
    if args.strata is not None and args.tune_objective != "adaptiveness":
        raise ValueError("--strata applies only to --tune-objective adaptiveness")
    labels, ss = _load_sorted(args)
    res = tune(ss, labels, args.alpha, args.tune_objective, args.lambda_grid,
               args.seed, args.strata)
    Path(_out(args.out, "tune.txt")).write_text(_kv({
        "objective": res.objective,
        "k_star": res.k_star,
        "k_reg": res.kreg,
        "lambda": res.penalty,
        "grid": " ".join(f"{lam!r}:{val!r}" for lam, val in res.grid),
    }))
    print(f"objective={res.objective} k_reg={res.kreg} lambda={res.penalty:g}")
    return 0


def cmd_calibrate(args) -> int:
    spec = MethodSpec(
        method=args.method,
        alpha=args.alpha,
        penalty=args.penalty,
        kreg=args.k_reg,
        randomized=not args.deterministic,
        boundary_inclusive=args.boundary_inclusive,
    )
    if spec.kreg != 1 and spec.method != "raps":
        raise ValueError(f"--k-reg is a raps knob, not valid for {spec.method}")
    if spec.boundary_inclusive and (spec.randomized or spec.method not in ("aps", "raps")):
        raise ValueError("--boundary-inclusive needs --deterministic with aps or raps")
    # Each block is sorted from its first row up to its labels' deepest
    # run of equal values only, for each label's (rank, s, rho); the
    # model is fitted on those, as on the whole matrix's sort.
    scores, blocks = _open_probabilities(args)
    ranks, s, rho = np.empty(scores.n, dtype=np.intp), np.empty(scores.n), np.empty(scores.n)
    for lo, block in blocks:
        rows = slice(lo, lo + block.n)
        p_y = block.scores[np.arange(block.n), block.labels]
        width = int(np.count_nonzero(block.scores >= p_y[:, None], axis=1).max())
        ss = sort_scores(block, args.seed, first_row=lo, _width=width)
        ranks[rows], s[rows], rho[rows] = ss.label_cells(block.labels)
    cells = _LabelCells(scores.labels, ranks, s, rho, scores.n_classes)
    model = fit_model(cells, scores.labels, spec, args.seed)
    path = _out(args.out, "model.txt")
    save_model(model, path)
    extra = f" k_star={model.k_star} mix_prob={model.mix_prob:g}" if model.k_star else ""
    print(f"method={spec.method} tau_hat={model.tau_hat:.12g} n_cal={model.n_cal}{extra}")
    print(f"wrote {path}")
    return 0


def cmd_predict(args) -> int:
    """Write predictions.csv one row block at a time (see _open_probabilities).

    Each block is sorted from its first row, up to the model's reach plus
    the one column top_classes' edge check reads, and sized with its slice
    of the one stream of u draws, so the file is the same as one pass over
    the whole matrix would give. The lines go to a partial file that replaces
    predictions.csv only once every block is done, so a bad row anywhere
    leaves no predictions.csv.
    """
    model = load_model(args.model)
    scores, blocks = _open_probabilities(args, model)
    sizer = _sizer((model,), scores.n_classes)
    width = min(scores.n_classes, sizer.reach + 1)
    u_rng = seeds.rng(args.seed, seeds.EVAL_U) if model.spec.randomized else None
    names = [str(j) for j in range(scores.n_classes + 1)]  # every size and class, as text
    path = _out(args.out, "predictions.csv")
    partial = path + ".partial"
    total = 0
    try:
        with open(partial, "w") as fh:
            for lo, block in blocks:
                ss = sort_scores(block, args.seed, first_row=lo, _width=width)
                u = u_rng.random(ss.n) if u_rng is not None else None
                sizes = sizer(ss, u)[0]
                total += int(sizes.sum())
                fh.writelines(
                    ",".join([str(lo + i), names[size], *[names[c] for c in classes]]) + "\n"
                    for i, (size, classes) in enumerate(zip(sizes.tolist(), ss.top_classes(sizes)))
                )
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    print(f"wrote {args.out}/predictions.csv ({scores.n} sets, mean size {total / scores.n:.3f})")
    return 0


def cmd_evaluate(args) -> int:
    """Write one model's report on --input, sorting it one row block at a time
    as cmd_predict does; the bytes are those of one pass over the whole matrix."""
    model = load_model(args.model)
    scores, blocks = _open_probabilities(args, model)
    blocks = (sort_scores(block, args.seed, first_row=lo) for lo, block in blocks)
    report = evaluate_model(model, blocks, scores.labels, args.seed, args.strata)
    names = ("n_eval", "coverage", "avg_size", "sscv", "top1", "top5")
    fields = {name: getattr(report, name) for name in names}
    Path(_out(args.out, "report.txt")).write_text(_kv(fields))
    Path(_out(args.out, "report.csv")).write_text(_csv("metric,value", fields.items()))
    _write_tables(args.out, report)
    print(f"coverage={report.coverage:.4f} avg_size={report.avg_size:.3f} sscv={report.sscv:.4f}")
    return 0


def cmd_experiment(args) -> int:
    rand = not args.deterministic
    # --lambda fixes the raps penalty (with --k-reg), else both are tuned per trial.
    # Refuse raps flags reaching no model, synthetic flags with --input, a fit-free --platt-split.
    unused = {"--lambda": args.penalty, "--k-reg": args.k_reg,
              "--tune-objective": args.tune_objective, "--lambda-grid": args.lambda_grid}
    if args.input:
        unused.update({"--n": args.n, "--k": args.k, "--concentration": args.concentration,
                       "--corruption": args.corruption, "--corruption-param": args.corruption_param})
    elif args.platt_split == "tuning":
        unused["--platt-split"] = args.platt_split
    policies: dict[str, MethodPolicy] = {}
    for name in args.methods:
        if name != "raps":
            policies[name] = MethodPolicy(MethodSpec(name, args.alpha, randomized=rand))
        elif args.penalty is not None:
            spec = MethodSpec(name, args.alpha, args.penalty, args.k_reg or 1, randomized=rand)
            policies[name] = MethodPolicy(spec)
            del unused["--lambda"], unused["--k-reg"]
        else:
            policies[name] = MethodPolicy(MethodSpec(name, args.alpha, randomized=rand),
                                          args.tune_objective or "size", args.lambda_grid)
            del unused["--tune-objective"], unused["--lambda-grid"]
    stray = [flag for flag, value in unused.items() if value is not None]
    if stray:
        raise ValueError(f"{', '.join(stray)} would reach no model (raps flags need raps in "
                         "--methods; --k-reg needs --lambda; the tuning flags need it unset; "
                         "the synthetic flags need no --input; --platt-split tuning needs "
                         "logits from --input)")

    if args.input:
        m = load_scores(args.input)
        if m.kind == "probabilities" and args.platt_split == "tuning":
            raise ValueError("--platt-split tuning only applies to logit inputs")
    else:
        pool = args.n if args.n else args.tune_size + args.cal_size + args.eval_size
        m = _observed(_synth_spec(args, pool, args.k or 100))  # no truth is kept

    protocol = TrialProtocol(
        n_trials=args.trials,
        cal_size=args.cal_size,
        eval_size=args.eval_size,
        tune_size=args.tune_size,
        seed=args.seed,
        platt_split=args.platt_split,
        strata=args.strata,
    )

    # One trial loop for the methods and the sweep, so each split is sorted
    # once; trial seeds depend on the trial index alone, so every method's
    # numbers are the same as in a loop of its own. The sweep shows only mean
    # sizes, so its models, after the first len(policies), get no report.
    kregs = [] if args.no_sweep else [k for k in SWEEP_KREGS if k <= m.n_classes]
    sweep = {
        (k, lam): MethodPolicy(MethodSpec("raps", args.alpha, lam, k, randomized=rand))
        for k in kregs for lam in SWEEP_LAMBDAS
    }
    everything = run_trials_multi(m, protocol, {**policies, **sweep}, n_full=len(policies))
    aggs = {name: everything[name] for name in policies}
    table = render_method_table(aggs)
    Path(_out(args.out, "table1.txt")).write_text(table)
    Path(_out(args.out, "summary.csv")).write_text(summary_csv(aggs))
    Path(_out(args.out, "strata.txt")).write_text(render_strata_table(aggs))
    Path(_out(args.out, "difficulty.txt")).write_text(render_difficulty_table(aggs))
    for name, agg in aggs.items():
        _write_tables(args.out, agg, f"_{name}")

    if not args.no_sweep:
        cells = {cell: float(np.median(everything[cell])) for cell in sweep}
        Path(_out(args.out, "sweep.txt")).write_text(render_sweep(cells, kregs, SWEEP_LAMBDAS))
        Path(_out(args.out, "sweep.csv")).write_text(sweep_csv(cells, kregs, SWEEP_LAMBDAS))

    print(table, end="")
    print(f"wrote report files to {args.out}")
    return 0


# --- parser ---------------------------------------------------------------

def _flag(*names, **kw) -> argparse.ArgumentParser:
    """A parent parser for add_parser(..., parents=[...]), holding one flag."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kw)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cset",
        description="Conformal prediction sets from classifier score matrices.",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    # One parent parser per shared flag, built afresh per call: subcommands share
    # its actions, and _apply_config rewrites their required and default fields.
    inp = _flag("--input", required=True, help="score file (csv or binary)")
    out = _flag("--out", required=True, help="output directory")
    model = _flag("--model", required=True, help="model file from calibrate")
    seed = _flag("--seed", type=_nonneg_int, default=0, help="master seed")
    temp = _flag("--temperature", type=_pos_float, default=None,
                 help="apply this softmax temperature to logit inputs")
    alpha = _flag("--alpha", type=_alpha, default=0.1, help="miscoverage level in (0, 1)")
    det = _flag("--deterministic", action="store_true",
                help="fix the randomization variable u to 1 (conservative)")
    strata = _flag("--strata", type=_strata, default=None,
                   help="set-size strata like 0-1,2-3,4-10")
    grid = _flag("--lambda-grid", type=_lambda_grid, default=None,
                 help="comma-separated penalties; default depends on the objective")
    synth = _flag("--concentration", type=_nonneg_float, default=None,
                  help="Dirichlet concentration (default, or 0: 0.05 * K)")
    synth.add_argument("--corruption", choices=CORRUPTIONS, default=None, help="default none")
    synth.add_argument("--corruption-param", type=_nonneg_float, default=None,
                       help="temperature t, or top_m for tail_permute")

    p = sub.add_parser("ingest", parents=[inp],
                       help="validate a score file and convert formats")
    p.add_argument("--to", choices=("binary", "csv"), default="binary")
    p.add_argument("--out", help="output directory (optional)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[synth, seed, out],
                       help="generate synthetic score matrices")
    p.add_argument("--n", type=_pos_int, required=True, help="number of rows")
    p.add_argument("--k", type=_pos_int, required=True, help="number of classes")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit-temp", parents=[inp, out],
                       help="fit a softmax temperature on logits")
    p.add_argument("--t-lo", type=_pos_float, default=DEFAULT_BOUNDS[0])
    p.add_argument("--t-hi", type=_pos_float, default=DEFAULT_BOUNDS[1])
    p.add_argument("--t-tol", type=_pos_float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_fit_temp)

    p = sub.add_parser("tune", parents=[inp, grid, strata, temp, alpha, seed, out],
                       help="pick raps knobs on a tuning split")
    p.add_argument("--tune-objective", choices=TUNE_OBJECTIVES, default="size")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("calibrate", parents=[inp, temp, alpha, seed, det, out],
                       help="calibrate a prediction-set model")
    p.add_argument("--method", choices=METHODS, default="raps")
    p.add_argument("--lambda", dest="penalty", type=_nonneg_float, default=0.0,
                   help="raps rank penalty")
    p.add_argument("--k-reg", type=_pos_int, default=1, help="penalty-free rank count")
    p.add_argument("--boundary-inclusive", action="store_true",
                   help="with --deterministic aps/raps, also keep the first class past the threshold")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", parents=[model, inp, temp, seed, out],
                       help="write prediction sets for a score file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[model, inp, temp, strata, seed, out],
                       help="coverage/size/adaptiveness report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", parents=[synth, grid, strata, alpha, seed, det, out],
                       help="multi-trial method comparison")
    p.add_argument("--input", default=None, help="score file; omit to use synthetic data")
    p.add_argument("--n", type=_pos_int, default=None,
                   help="synthetic pool size (default: sum of split sizes)")
    p.add_argument("--k", type=_pos_int, default=None, help="synthetic class count (default 100)")
    p.add_argument("--methods", type=_method_list, default=METHODS,
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--trials", type=_pos_int, default=10)
    p.add_argument("--tune-size", type=_nonneg_int, default=0)
    p.add_argument("--cal-size", type=_pos_int, required=True)
    p.add_argument("--eval-size", type=_pos_int, required=True)
    p.add_argument("--lambda", dest="penalty", type=_nonneg_float, default=None,
                   help="fix the raps penalty instead of tuning")
    p.add_argument("--k-reg", type=_pos_int, default=None,
                   help="penalty-free rank count with --lambda (default 1)")
    p.add_argument("--tune-objective", choices=TUNE_OBJECTIVES, default=None,
                   help="what tuning raps minimizes without --lambda (default size)")
    p.add_argument("--platt-split", choices=("calibration", "tuning"), default="calibration")
    p.add_argument("--no-sweep", action="store_true",
                   help="skip the (k_reg, lambda) size sweep")
    p.set_defaults(func=cmd_experiment)

    return parser, sub


def _extract_config(argv) -> tuple[str | None, list]:
    """Pull --config out of argv so it works in any position.

    The main parser would only accept the flag before the subcommand name,
    and the config must be applied before that parser runs, so a parser that
    knows only --config takes it out first and leaves the rest in order.
    """
    pre = argparse.ArgumentParser(prog="cset", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    return known.config, rest


def _apply_config(sub, argv, path) -> None:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"config {path} must hold a JSON object")
    name = next((tok for tok in argv if not tok.startswith("-")), None)
    if name is None or name not in sub.choices:
        raise ValueError("a subcommand is required when using --config")
    target = sub.choices[name]
    actions = {
        a.dest: a for a in target._actions
        if any(s.startswith("--") for s in a.option_strings)
        and not isinstance(a, argparse._HelpAction)
    }
    defaults = {}
    for key, val in data.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r} for command {name}")
        action = actions[key]
        if action.nargs == 0:  # store_true flags
            if not isinstance(val, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {val!r}")
        else:
            try:
                val = action.type(str(val)) if action.type is not None else str(val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            if action.choices is not None and val not in action.choices:
                raise ValueError(f"config key {key!r} must be one of {list(action.choices)}")
        action.required = False  # the config supplies a required flag
        defaults[key] = val
    target.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = build_parser()
    try:
        cfg, argv = _extract_config(argv)
        if cfg is not None:
            _apply_config(sub, argv, cfg)
        args = parser.parse_args(argv)
        code = args.func(args)
        _echo_config(args)
        return code
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
