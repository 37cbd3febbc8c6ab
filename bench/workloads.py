"""The three benchmark workloads: inputs, timed passes and output checks.

Each workload makes its inputs from the seed with its own numpy code (the
program is handed files or specs, never its own generator's output), runs
one timed pass of program calls at a time, and checks every output after the
pass, outside the timed section. A program call plus its output check is one
operation; it fails if the call exits nonzero, raises, or fails its check.

Why these three (each stresses a different part of the pipeline):

predict_logits_k1000
    Tie-free float32 logits at the shape of ImageNet validation (K=1000,
    10k calibration and 40k new rows) through the CLI fit-temp, calibrate
    and predict. Sorting dominates; it is the only workload that uses platt,
    large load_scores, the model file and predictions.csv.
experiment_k100
    The CLI experiment on a sparse, tie-heavy K=100 pool: five methods,
    raps tuned for size, and the (k_reg, lambda) sweep. Many small calls;
    the only workload that uses tuning, reports and split/take.
synth_coverage_k100
    run_synth_trials and oracle_coverage on fresh synthetic data each trial
    (the coverage-sandwich shape). Data generation dominates; no file I/O.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import shutil
import struct
import time
import traceback

import numpy as np

ALPHA = 0.1
# Coverage gates sit this many standard errors of the checked statistic from
# the target. Each run is one more draw of a statistical test, so 3 standard
# errors would fail a correct program about once in 300-700 runs; 4 keeps
# that below 1 in 10^4. At the full shapes the gates flag a shortfall of 1.3
# (predict), 1.4 (synth trials), 2.2 (experiment) and 2.3 (oracle)
# percentage points.
COVERAGE_Z = 4.0
# Standard error of the median of normal draws over that of their mean.
MEDIAN_SE_FACTOR = math.sqrt(math.pi / 2)

SHAPES = {
    "full": {
        "predict_logits_k1000": dict(n_cal=10_000, n_new=40_000, k=1000),
        "experiment_k100": dict(pool=20_000, k=100, trials=10, tune=1000, cal=1000, eval=5000),
        "synth_coverage_k100": dict(k=100, trials=8, oracle_trials=3, cal=1000, eval=10_000),
    },
    "tiny": {
        "predict_logits_k1000": dict(n_cal=400, n_new=600, k=50),
        "experiment_k100": dict(pool=1500, k=100, trials=2, tune=200, cal=300, eval=500),
        "synth_coverage_k100": dict(k=100, trials=3, oracle_trials=2, cal=300, eval=600),
    },
}

# Per-label logit boost that puts top-1 accuracy near 0.7 at K=1000.
LOGIT_BOOST = 3.75
TAIL_TOP_M = 10
# Dirichlet shape of the experiment pool. About 13% of the draws fall below
# float32 range, so the stored rows are sparse and about 12% of adjacent
# sorted values tie (the predict logits have about 6e-6).
SPARSE_SHAPE = 0.02
BLOCK_ROWS = 2000


# --- inputs -----------------------------------------------------------------

def write_scores(path: str, kind: str, rows, rng, n: int, k: int) -> np.ndarray:
    """Write n rows from rows(rng, count, k) in the CSET1 binary format.

    The format is a header, float32 scores and uint32 labels. Rows are made
    and written in blocks so that the benchmark's own memory stays well
    below the program's, which keeps peak RSS a measure of the program.
    Returns the labels.
    """
    labels = []
    with open(path, "wb") as fh:
        fh.write(b"CSET1")
        fh.write(struct.pack("<BQQ", 0 if kind == "logits" else 1, n, k))
        for start in range(0, n, BLOCK_ROWS):
            scores, y = rows(rng, min(BLOCK_ROWS, n - start), k)
            fh.write(np.ascontiguousarray(scores, dtype="<f4").tobytes())
            labels.append(y)
        labels = np.concatenate(labels)
        fh.write(labels.astype("<u4").tobytes())
    return labels


def read_logits(path: str) -> np.ndarray:
    """Memory-map the score block of a file written by write_scores."""
    with open(path, "rb") as fh:
        head = fh.read(5 + struct.calcsize("<BQQ"))
    _, n, k = struct.unpack_from("<BQQ", head, 5)
    return np.memmap(path, dtype="<f4", mode="r", offset=len(head), shape=(n, k))


def gaussian_logits(rng, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal float32 logits with a fixed boost on the true label."""
    labels = rng.integers(0, k, n)
    z = rng.standard_normal((n, k), dtype=np.float32)
    z[np.arange(n), labels] += np.float32(LOGIT_BOOST)
    return z, labels


def sparse_probabilities(rng, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet(SPARSE_SHAPE) rows with the ranks past TAIL_TOP_M shuffled."""
    g = np.maximum(rng.gamma(SPARSE_SHAPE, 1.0, size=(n, k)), 1e-290)
    p = g / g.sum(axis=1, keepdims=True)
    u = rng.random(n)
    labels = np.minimum((np.cumsum(p, axis=1) < u[:, None]).sum(axis=1), k - 1)
    tail = np.argsort(-p, axis=1, kind="stable")[:, TAIL_TOP_M:]
    shuffled = np.take_along_axis(tail, np.argsort(rng.random(tail.shape), axis=1), axis=1)
    out = p.copy()
    np.put_along_axis(out, shuffled, np.take_along_axis(p, tail, axis=1), axis=1)
    return out, labels


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def coverage_se(n_cal: int, n_eval: int) -> float:
    """Standard error of one split's coverage: calibration plus evaluation draw."""
    return math.sqrt(ALPHA * (1 - ALPHA) * (1.0 / n_cal + 1.0 / n_eval))


def median_coverage_se(n_cal: int, n_eval: int, trials: int, pool: int) -> float:
    """Standard error of the median over trials of one split's coverage,
    when every trial splits the same pool of rows at random.

    Two trials' calibration sets share n_cal / pool of their rows on average
    and their evaluation sets n_eval / pool, so the trials' coverages are
    correlated: each pair adds alpha (1 - alpha) / pool per shared part to
    the covariance. The pool itself does not count: conformal coverage holds
    for random splits of any fixed pool.
    """
    one = coverage_se(n_cal, n_eval) ** 2
    shared = 2 * ALPHA * (1 - ALPHA) / pool
    return MEDIAN_SE_FACTOR * math.sqrt(one / trials + (1 - 1 / trials) * shared)


def sandwich(n_cal: int, n_eval: int, trials: int) -> tuple[float, float]:
    """The acceptance tests' band for the mean coverage of independent trials.

    [1 - alpha, 1 - alpha + 1/(n_cal + 1)] widened by COVERAGE_Z standard
    errors of the mean. The standard error comes from the known law of one
    split's coverage rather than from the spread of a few trials, which is
    itself so noisy at ten trials that the band would often be too narrow.
    """
    se = coverage_se(n_cal, n_eval) / math.sqrt(trials)
    return (1 - ALPHA) - COVERAGE_Z * se, (1 - ALPHA) + 1.0 / (n_cal + 1) + COVERAGE_Z * se


# --- operations -------------------------------------------------------------

class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Pass:
    """What one timed pass did: step times, failures, digests, quality."""

    def __init__(self):
        self.steps: dict[str, float] = {}
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.avg_set_size = float("nan")

    @property
    def wall_s(self) -> float:
        return sum(self.steps.values())

    def call(self, name: str, fn, *args):
        """Time one program call; a raise or a nonzero exit code fails it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.steps[name] = time.perf_counter() - t0
            self.failures[name] = traceback.format_exc(limit=4)
            return None
        self.steps[name] = time.perf_counter() - t0
        if isinstance(result, int) and result != 0:
            self.failures[name] = f"exit code {result}"
        return result

    def check(self, name: str, fn, *args):
        """Run an output check for an operation that has not failed yet."""
        if name in self.failures:
            return None
        try:
            return fn(*args)
        except Exception as exc:
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc(limit=4)
            self.failures[name] = f"check failed: {detail}"
            return None

    def skip(self, name: str, reason: str) -> None:
        self.attempted += 1
        self.failures[name] = f"not run: {reason}"

    def to_json(self) -> dict:
        return {
            "steps": self.steps, "wall_s": self.wall_s, "attempted": self.attempted,
            "failures": self.failures, "digests": self.digests,
            "avg_set_size": self.avg_set_size,
        }


def cli(argv):
    # Looked up at call time so that the tracer's wrappers are the ones called.
    return importlib.import_module("cset.cli").main(argv)


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, shape: dict):
        self.workdir = workdir
        self.seed = seed
        self.shape = shape
        self._passes = 0
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def run_pass(self) -> Pass:
        """One timed pass in a fresh output directory, removed afterwards."""
        self._passes += 1
        out = self.path(f"pass{self._passes}")
        p = Pass()
        try:
            self._run(p, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return p

    def warm_up(self) -> None:
        """Run the pass once on the small warm-up inputs, untimed and unchecked."""
        self._warm(self.path("warm"))
        shutil.rmtree(self.path("warm"), ignore_errors=True)


class PredictLogits(Workload):
    name = "predict_logits_k1000"

    def setup(self) -> None:
        s = self.shape
        rng = np.random.default_rng([self.seed, 1])
        for tag, n in (("cal", s["n_cal"]), ("new", s["n_new"]), ("warm_cal", 200), ("warm_new", 200)):
            y = write_scores(self.path(f"{tag}.bin"), "logits", gaussian_logits, rng, n, s["k"])
            if tag == "new":
                self.labels_new = y
        self.prog_seed = str(self.seed % 2**31)

    def _steps(self, p: Pass, out: str, cal: str, new: str) -> tuple[str, float] | None:
        d_fit, d_cal, d_pred = (os.path.join(out, x) for x in ("fit", "cal", "pred"))
        p.call("fit_temp", cli, ["fit-temp", "--input", cal, "--out", d_fit])
        temp = p.check("fit_temp", self._check_temperature, p, d_fit)
        if temp is None:
            p.skip("calibrate", "fit-temp failed")
            p.skip("predict", "fit-temp failed")
            return None
        p.call("calibrate", cli, [
            "calibrate", "--input", cal, "--method", "raps", "--lambda", "0.01",
            "--k-reg", "5", "--temperature", temp, "--seed", self.prog_seed, "--out", d_cal])
        p.check("calibrate", self._check_model, p, d_cal)
        if "calibrate" in p.failures:
            p.skip("predict", "calibrate failed")
            return None
        p.call("predict", cli, [
            "predict", "--model", os.path.join(d_cal, "model.txt"), "--input", new,
            "--temperature", temp, "--seed", str(int(self.prog_seed) + 1), "--out", d_pred])
        return os.path.join(d_pred, "predictions.csv"), float(temp)

    def _warm(self, out: str) -> None:
        self._steps(Pass(), out, self.path("warm_cal.bin"), self.path("warm_new.bin"))

    def _run(self, p: Pass, out: str) -> None:
        done = self._steps(p, out, self.path("cal.bin"), self.path("new.bin"))
        if done is not None:
            p.check("predict", self._check_predictions, p, *done)

    def _check_temperature(self, p: Pass, d: str) -> str:
        path = os.path.join(d, "temperature.txt")
        fields = dict(line.split(" = ") for line in open(path).read().splitlines())
        t = float(fields["temperature"])
        expect(0.05 <= t <= 20.0, f"temperature {t} outside the fit bracket")
        expect(float(fields["nll_after"]) <= float(fields["nll_before"]), "fit raised the nll")
        p.digests["temperature.txt"] = sha256_file(path)
        return fields["temperature"]

    def _check_model(self, p: Pass, d: str) -> None:
        path = os.path.join(d, "model.txt")
        fields = dict(line.split(" = ") for line in open(path).read().splitlines())
        expect(fields["method"] == "raps", "model method is not raps")
        expect(int(fields["n_cal"]) == self.shape["n_cal"], "model n_cal mismatch")
        expect(int(fields["n_classes"]) == self.shape["k"], "model K mismatch")
        expect(math.isfinite(float(fields["tau_hat"])), "tau_hat is not finite")
        p.digests["model.txt"] = sha256_file(path)

    def _check_predictions(self, p: Pass, path: str, temperature: float) -> None:
        """Sets parse, sizes lie in [0, K], each set is a prefix of a
        descending order of its row's probabilities, and coverage is valid.

        The probabilities are recomputed with the same numpy operations as
        cset's softmax, so ties (underflow to zero at a small temperature)
        are the program's ties, and a tie may be broken either way.
        """
        n, k = self.shape["n_new"], self.shape["k"]
        with open(path, "rb") as fh:
            blob = fh.read()
        p.digests["predictions.csv"] = hashlib.sha256(blob).hexdigest()
        rows = blob.split(b"\n")
        expect(rows[-1] == b"" and len(rows) == n + 1, f"expected {n} prediction rows")
        sizes = np.empty(n, dtype=np.int64)
        classes = []
        for i, row in enumerate(rows[:-1]):
            vals = np.array(row.split(b","), dtype=np.int64)
            expect(vals[0] == i, f"row {i}: index {vals[0]}")
            expect(0 <= vals[1] <= k and vals.size == vals[1] + 2, f"row {i}: bad size")
            sizes[i] = vals[1]
            classes.append(vals[2:])
        cls = np.concatenate(classes)
        expect(((cls >= 0) & (cls < k)).all(), "class index out of range")
        logits = read_logits(self.path("new.bin"))
        covered = np.zeros(n, dtype=bool)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        chunk = 5000
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            z = np.asarray(logits[a:b], dtype=np.float64)
            z = np.exp((z - z.max(axis=1, keepdims=True)) / temperature)
            z = z / z.sum(axis=1, keepdims=True)
            rid = np.repeat(np.arange(b - a), sizes[a:b])
            c = cls[starts[a]:starts[b]]
            member = np.zeros(z.shape, dtype=bool)
            member[rid, c] = True
            expect((member.sum(axis=1) == sizes[a:b]).all(), "repeated class in a set")
            vals = z[rid, c]
            same_row = rid[1:] == rid[:-1]
            expect((vals[1:][same_row] <= vals[:-1][same_row]).all(),
                   "set not listed in descending score order")
            lowest = np.full(b - a, np.inf)
            np.minimum.at(lowest, rid, vals)
            outside = np.where(member, -np.inf, z).max(axis=1)
            expect((lowest >= outside).all(), "a set is not a prefix of its row's order")
            covered[a:b] = member[np.arange(b - a), self.labels_new[a:b]]
        del logits
        cov = float(covered.mean())
        floor = (1 - ALPHA) - COVERAGE_Z * coverage_se(self.shape["n_cal"], n)
        expect(cov >= floor, f"coverage {cov:.5f} below {floor:.5f}")
        p.avg_set_size = float(sizes.mean())


class Experiment(Workload):
    name = "experiment_k100"
    METHODS = ("naive", "aps", "raps", "lac", "fixed_k")

    def setup(self) -> None:
        s = self.shape
        rng = np.random.default_rng([self.seed, 2])
        write_scores(self.path("pool.bin"), "probabilities", sparse_probabilities,
                     rng, s["pool"], s["k"])
        write_scores(self.path("warm_pool.bin"), "probabilities", sparse_probabilities,
                     rng, 600, s["k"])

    def _argv(self, pool: str, out: str, trials, tune, cal, ev) -> list:
        return ["experiment", "--input", pool, "--methods", ",".join(self.METHODS),
                "--trials", str(trials), "--tune-size", str(tune), "--cal-size", str(cal),
                "--eval-size", str(ev), "--seed", str(self.seed % 2**31), "--out", out]

    def _warm(self, out: str) -> None:
        cli(self._argv(self.path("warm_pool.bin"), out, 1, 200, 100, 200))

    def _run(self, p: Pass, out: str) -> None:
        s = self.shape
        p.call("experiment", cli,
               self._argv(self.path("pool.bin"), out, s["trials"], s["tune"], s["cal"], s["eval"]))
        p.check("experiment", self._check, p, out)

    def _check(self, p: Pass, out: str) -> None:
        s = self.shape
        path = os.path.join(out, "summary.csv")
        lines = open(path).read().splitlines()
        expect(lines[0] == "method,coverage,avg_size,sscv,top1,top5,penalty,kreg",
               "summary.csv header changed")
        rows = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in lines[1:]}
        expect(sorted(rows) == sorted(self.METHODS), "summary.csv methods")
        # summary.csv holds each method's median coverage over the trials.
        floor = (1 - ALPHA) - COVERAGE_Z * median_coverage_se(
            s["cal"], s["eval"], s["trials"], s["pool"])
        for name, (cov, size, *_rest) in rows.items():
            expect(0 <= size <= s["k"], f"{name}: mean size {size} outside [0, K]")
            if name in ("aps", "raps", "lac"):
                expect(cov >= floor, f"{name}: coverage {cov:.5f} below {floor:.5f}")
        sweep = open(os.path.join(out, "sweep.csv")).read().splitlines()
        expect(sweep[0] == "k_reg,lambda,avg_size" and len(sweep) == 51, "sweep.csv shape")
        p.digests["summary.csv"] = sha256_file(path)
        p.digests["sweep.csv"] = sha256_file(os.path.join(out, "sweep.csv"))
        p.avg_set_size = rows["raps"][1]


class SynthCoverage(Workload):
    name = "synth_coverage_k100"
    CALIBRATED = ("raps", "aps", "lac")

    def setup(self) -> None:
        self.cset = importlib.import_module("cset")

    def _specs(self, trials: int, cal: int, ev: int, seed: int):
        c = self.cset
        spec = c.SynthSpec(n=1, n_classes=self.shape["k"], corruption="tail_permute",
                           corruption_param=TAIL_TOP_M)
        protocol = c.TrialProtocol(n_trials=trials, cal_size=cal, eval_size=ev, seed=seed)
        raps = c.MethodSpec("raps", ALPHA, penalty=0.01, kreg=5)
        policies = {
            "raps": c.MethodPolicy(raps),
            "aps": c.MethodPolicy(c.MethodSpec("aps", ALPHA)),
            "lac": c.MethodPolicy(c.MethodSpec("lac", ALPHA)),
            "naive": c.MethodPolicy(c.MethodSpec("naive", ALPHA)),
        }
        return spec, protocol, policies, raps

    def _warm(self, out: str) -> None:
        spec, protocol, policies, raps = self._specs(1, 200, 300, 0)
        self.cset.trials.run_synth_trials(spec, protocol, policies)
        self.cset.synth.oracle_coverage(spec, raps, 200, 300, 1, seed=1)

    def _run(self, p: Pass, out: str) -> None:
        s = self.shape
        trial_seed, oracle_seed = (self.seed * 2) % 2**63, (self.seed * 2 + 1) % 2**63
        spec, protocol, policies, raps = self._specs(s["trials"], s["cal"], s["eval"], trial_seed)
        # Module attributes are read at call time so traced passes hit the wrappers.
        aggs = p.call("synth_trials", lambda: self.cset.trials.run_synth_trials(
            spec, protocol, policies))
        oracle = p.call("oracle_coverage", lambda: self.cset.synth.oracle_coverage(
            spec, raps, s["cal"], s["eval"], s["oracle_trials"], seed=oracle_seed))
        p.check("synth_trials", self._check_trials, p, aggs)
        p.check("oracle_coverage", self._check_oracle, p, oracle)

    def _check_trials(self, p: Pass, aggs) -> None:
        s = self.shape
        lo, hi = sandwich(s["cal"], s["eval"], s["trials"])
        h = hashlib.sha256()
        for name in ("raps", "aps", "lac", "naive"):
            agg = aggs[name]
            vectors = (agg.coverage, agg.avg_size, agg.sscv, agg.top1, agg.top5,
                       agg.penalties, agg.kregs)
            expect(all(v.shape == (s["trials"],) and np.isfinite(v).all() for v in vectors),
                   f"{name}: aggregate vectors malformed")
            for v in vectors:
                h.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
            if name not in self.CALIBRATED:
                continue
            mean = float(agg.coverage.mean())
            expect(lo <= mean <= hi, f"{name}: coverage {mean:.5f} outside [{lo:.5f}, {hi:.5f}]")
        p.digests["aggregates"] = h.hexdigest()
        p.avg_set_size = aggs["raps"].median_size

    def _check_oracle(self, p: Pass, oracle: float) -> None:
        s = self.shape
        lo, hi = sandwich(s["cal"], s["eval"], s["oracle_trials"])
        expect(lo <= oracle <= hi, f"oracle coverage {oracle:.5f} outside [{lo:.5f}, {hi:.5f}]")
        p.digests["oracle_coverage"] = hashlib.sha256(repr(oracle).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (PredictLogits, Experiment, SynthCoverage)}
