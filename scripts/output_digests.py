"""Print the sha256 of every file a fixed set of CLI runs writes.

The runs go through `cset.cli.main` in one process, inside a temporary
directory and with relative paths, so the listing depends only on the code
under test. Every command is covered: `synth`, `ingest`, `fit-temp`,
`calibrate` for each method (randomized, deterministic, boundary-inclusive
and on logits), `predict` on binary and CSV input, `evaluate` with and
without `--strata`, `tune` with both objectives (also on the tie-heavy
file), `calibrate`, `evaluate`, `tune` and `predict` on a logit file of four
row blocks, `calibrate` and `evaluate` on CSV input, and six `experiment`
variants, one of them on the tie-heavy file and one the (k_reg, lambda)
sweep on a sparse K=100 pool. Last come the generator's block walk:
`synth` with the temperature corruption, `synth` at K=1000 where about half
of each row's cells clip to one value, and a synthetic `experiment` whose
tail_permute rows are split between tied and tie-free ones, an
`experiment` on logits whose evaluation split spans several row blocks,
and `calibrate` and `predict` with raps models (randomized, deterministic,
boundary-inclusive) and fixed_k whose sets reach far fewer ranks than K,
so `predict` sorts only those ranks, on the logit file and on the
tie-heavy one. Last of all, `calibrate` (raps, reaching fewer ranks than
K), `predict`, `evaluate` and `tune` on the tie-heavy rows with about half
their zero cells stored as -0.0, which are sorted through the tie order,
and `fit-temp` on a narrow bracket, on one above T = 1 and to float
resolution.
To check that a change keeps every output byte, run it against each
checkout and diff the two listings:

    PYTHONPATH=<checkout>/src python3 scripts/output_digests.py > <listing>

It takes no options.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import cset
from cset import cli

METHOD_FLAGS = {
    "naive": [],
    "aps": [],
    "raps": ["--lambda", "0.01", "--k-reg", "3"],
    "lac": [],
    "fixed_k": [],
}
SMALL_EXPERIMENT = ["experiment", "--k", "50", "--trials", "4", "--cal-size", "500",
                    "--eval-size", "1000"]


def flows():
    """The argv of each run, in order; later runs read what earlier ones wrote."""
    yield ["synth", "--n", "3000", "--k", "50", "--corruption", "tail_permute",
           "--corruption-param", "5", "--seed", "1", "--out", "cal"]
    yield ["synth", "--n", "2000", "--k", "50", "--seed", "2", "--out", "new"]
    yield ["ingest", "--input", "ties.bin", "--to", "csv", "--out", "ties_csv"]
    yield ["fit-temp", "--input", "logits.bin", "--out", "temp"]
    for method, flags in METHOD_FLAGS.items():
        for data in ("cal", "ties"):
            src = "cal/observed.bin" if data == "cal" else "ties.bin"
            base = ["calibrate", "--input", src, "--method", method, *flags]
            yield [*base, "--seed", "4", "--out", f"{data}_{method}"]
            yield [*base, "--deterministic", "--out", f"{data}_{method}_det"]
    for method in ("aps", "raps"):
        yield ["calibrate", "--input", "cal/observed.bin", "--method", method,
               "--deterministic", "--boundary-inclusive", "--out", f"cal_{method}_incl"]
    yield ["calibrate", "--input", "logits.bin", "--method", "raps", "--lambda", "0.1",
           "--temperature", "1.5", "--out", "logits_raps"]
    # Four row blocks at K=50 (three of 1310 rows, a last one of 70) through
    # every command that softmaxes and sorts a score file.
    wide = ["--input", "wide.bin", "--temperature", "1.5"]
    yield ["calibrate", *wide, "--method", "raps", "--lambda", "0.02", "--k-reg", "2",
           "--seed", "7", "--out", "wide_raps"]
    yield ["evaluate", "--model", "wide_raps/model.txt", *wide, "--seed", "8",
           "--out", "eval_wide"]
    yield ["tune", *wide, "--seed", "9", "--out", "tune_wide"]
    yield ["predict", "--model", "wide_raps/model.txt", *wide, "--seed", "10",
           "--out", "pred_wide"]
    yield ["calibrate", "--input", "ties_csv/scores.csv", "--method", "aps", "--seed", "11",
           "--out", "ties_csv_aps"]
    yield ["evaluate", "--model", "ties_csv_aps/model.txt", "--input", "ties_csv/scores.csv",
           "--seed", "12", "--out", "eval_ties_csv"]
    for model in [f"cal_{m}" for m in METHOD_FLAGS] + ["cal_raps_det", "cal_raps_incl"]:
        yield ["predict", "--model", f"{model}/model.txt", "--input", "new/observed.bin",
               "--seed", "3", "--out", f"pred_{model}"]
    for method in METHOD_FLAGS:
        yield ["predict", "--model", f"ties_{method}/model.txt", "--input", "ties.bin",
               "--out", f"pred_ties_{method}"]
    yield ["predict", "--model", "ties_raps/model.txt", "--input", "ties_csv/scores.csv",
           "--out", "pred_ties_csv"]
    yield ["predict", "--model", "logits_raps/model.txt", "--input", "logits.bin",
           "--temperature", "1.5", "--out", "pred_logits"]
    yield ["evaluate", "--model", "cal_raps/model.txt", "--input", "new/observed.bin",
           "--out", "eval"]
    yield ["evaluate", "--model", "ties_aps_det/model.txt", "--input", "ties.bin",
           "--strata", "0-1,2-3,4-20", "--out", "eval_strata"]
    yield ["tune", "--input", "cal/observed.bin", "--out", "tune_size"]
    yield ["tune", "--input", "cal/observed.bin", "--tune-objective", "adaptiveness",
           "--strata", "0-1,2-5,6-50", "--out", "tune_adapt"]
    # Most labels of ties.bin tie another class, so their ranks come from the
    # seeded tie order.
    yield ["tune", "--input", "ties.bin", "--seed", "13", "--out", "tune_ties"]
    yield ["tune", "--input", "ties.bin", "--tune-objective", "adaptiveness",
           "--strata", "0-1,2-4,5-20", "--seed", "14", "--out", "tune_ties_adapt"]
    yield [*SMALL_EXPERIMENT, "--tune-size", "300", "--seed", "5", "--out", "exp"]
    yield [*SMALL_EXPERIMENT, "--lambda", "0.05", "--k-reg", "2", "--no-sweep", "--out",
           "exp_fixed"]
    yield [*SMALL_EXPERIMENT, "--tune-size", "300", "--tune-objective", "adaptiveness",
           "--strata", "0-1,2-4,5-50", "--deterministic", "--no-sweep", "--out", "exp_adapt"]
    yield ["experiment", "--input", "ties.bin", "--trials", "2", "--tune-size", "300",
           "--cal-size", "500", "--eval-size", "600", "--seed", "15", "--out", "exp_ties"]
    yield ["experiment", "--input", "logits.bin", "--methods", "aps,raps,lac",
           "--trials", "3", "--tune-size", "400", "--cal-size", "600", "--eval-size", "800",
           "--platt-split", "tuning", "--no-sweep", "--out", "exp_logits"]
    # The sweep on sparse rows, where set_sizes_many cuts most columns, with
    # 2000 evaluation rows over four of its 655-row blocks at K=100.
    yield ["experiment", "--input", "sparse.bin", "--trials", "2", "--tune-size", "300",
           "--cal-size", "500", "--eval-size", "2000", "--seed", "6", "--out", "exp_sparse"]
    # The z_ names keep these runs last in the listing. Each spans several
    # row blocks of synth.generate, the last one partial.
    yield ["synth", "--n", "2000", "--k", "50", "--corruption", "temperature",
           "--corruption-param", "2", "--seed", "17", "--out", "z_synth_temp"]
    yield ["synth", "--n", "150", "--k", "1000", "--concentration", "1", "--corruption",
           "tail_permute", "--corruption-param", "1", "--seed", "18", "--out", "z_synth_clip"]
    yield ["experiment", "--k", "100", "--n", "1500", "--concentration", "0.5",
           "--corruption", "tail_permute", "--corruption-param", "5", "--trials", "2",
           "--tune-size", "300", "--cal-size", "500", "--eval-size", "700", "--no-sweep", "--seed", "16",
           "--out", "z_exp_synth"]
    # An experiment on the logit file whose softmaxed evaluation split spans
    # three 1310-row blocks at K=50, the last one partial.
    yield ["experiment", "--input", "wide.bin", "--methods", "aps,raps,lac", "--lambda", "0.02",
           "--k-reg", "2", "--no-sweep", "--trials", "2", "--cal-size", "500",
           "--eval-size", "3000", "--out", "z_wide_exp"]
    # raps models whose penalty alone passes tau_hat far below K, so predict
    # sorts only the ranks a set can reach (on wide.bin, K=50, and on the
    # tie-heavy file, K=20), and fixed_k, which reaches k_star.
    for name, flags in (("raps", []), ("raps_det", ["--deterministic"]),
                        ("raps_incl", ["--deterministic", "--boundary-inclusive"])):
        yield ["calibrate", *wide, "--method", "raps", "--lambda", "0.1", "--k-reg", "2",
               *flags, "--seed", "19", "--out", f"zr_wide_{name}"]
        yield ["predict", "--model", f"zr_wide_{name}/model.txt", *wide, "--seed", "20",
               "--out", f"zr_pred_wide_{name}"]
    yield ["calibrate", *wide, "--method", "fixed_k", "--seed", "21", "--out", "zr_wide_fixed_k"]
    yield ["predict", "--model", "zr_wide_fixed_k/model.txt", *wide, "--seed", "22",
           "--out", "zr_pred_wide_fixed_k"]
    yield ["calibrate", "--input", "ties.bin", "--method", "raps", "--lambda", "0.2",
           "--seed", "23", "--out", "zr_ties_raps"]
    yield ["predict", "--model", "zr_ties_raps/model.txt", "--input", "ties.bin", "--seed", "24",
           "--out", "zr_pred_ties_raps"]
    # A row block holding a -0.0 is sorted through the seeded tie order.
    signed = ["--input", "signed.bin"]
    yield ["calibrate", *signed, "--method", "raps", "--lambda", "0.2", "--seed", "25",
           "--out", "zs_signed_raps"]
    yield ["predict", "--model", "zs_signed_raps/model.txt", *signed, "--seed", "26",
           "--out", "zs_pred_signed"]
    yield ["evaluate", "--model", "zs_signed_raps/model.txt", *signed, "--seed", "27",
           "--out", "zs_eval_signed"]
    yield ["tune", *signed, "--seed", "28", "--out", "zs_tune_signed"]
    # fit-temp on a narrow bracket with a small tol, on a bracket without
    # T = 1, and to float resolution on the file of four row blocks.
    yield ["fit-temp", "--input", "logits.bin", "--t-lo", "0.2", "--t-hi", "3", "--t-tol", "1e-6",
           "--out", "zt_temp_narrow"]
    yield ["fit-temp", "--input", "logits.bin", "--t-lo", "1.5", "--t-hi", "4", "--out",
           "zt_temp_above_one"]
    yield ["fit-temp", "--input", "wide.bin", "--t-tol", "1e-300", "--out", "zt_temp_to_float"]


def write_inputs() -> None:
    """A fixed 2000 x 20 logit file whose labels follow the logits, a
    1500 x 20 probability file whose rows are thick with exact ties, a
    3000 x 100 Dirichlet(0.02) probability file whose labels follow the
    rows (stored as float32, about an eighth of its cells are exact zeros),
    a 4000 x 50 logit file whose labels follow the logits, and last the
    tie-heavy file's rows again with about half their zero cells stored
    as -0.0."""
    g = np.random.default_rng(0)
    z = 2.0 * g.normal(size=(2000, 20))
    labels = np.argmax(z + g.gumbel(size=z.shape), axis=1)
    cset.save_scores(cset.ScoreMatrix(z, labels, "logits"), "logits.bin", "binary")
    counts = g.integers(0, 4, size=(1500, 20)) * (g.random((1500, 20)) < 0.4)
    counts[:, 0] += 1
    labels = np.argmax(counts + g.random(counts.shape), axis=1)
    probs = counts / counts.sum(axis=1, keepdims=True)
    cset.save_scores(cset.ScoreMatrix(probs, labels, "probabilities"), "ties.bin", "binary")
    p = np.maximum(g.gamma(0.02, size=(3000, 100)), 1e-290)
    p /= p.sum(axis=1, keepdims=True)
    labels = np.minimum((np.cumsum(p, axis=1) < g.random((3000, 1))).sum(axis=1), 99)
    cset.save_scores(cset.ScoreMatrix(p, labels, "probabilities"), "sparse.bin", "binary")
    z = 2.0 * g.normal(size=(4000, 50))
    labels = np.argmax(z + g.gumbel(size=z.shape), axis=1)
    cset.save_scores(cset.ScoreMatrix(z, labels, "logits"), "wide.bin", "binary")
    ties = cset.load_scores("ties.bin")
    x = ties.scores.copy()
    x[(x == 0) & (g.random(x.shape) < 0.5)] = -0.0
    cset.save_scores(cset.ScoreMatrix(x, ties.labels, "probabilities"), "signed.bin", "binary")


def run(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"cset {' '.join(argv)} exited {code}:\n{err.getvalue()}")


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs()
            for argv in flows():
                run(argv)
            for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
