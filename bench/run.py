"""cset benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload predict_logits_k1000 --seed 1 --seconds 20 --trace 0

The program is imported from ./src; nothing is installed. This process only
drives the load: every measurement happens in child processes (bench/child.py),
one at a time, each single-threaded. An untraced run starts TIMED_CHILDREN
children, each of which sets up from scratch and then runs timed passes for
its share of --seconds (at least one pass), and before each of them
SETUP_ONLY_PER_TIMED children that only set up. Set-up time is the median
over all of them, wall time the median over the passes and peak RSS the
median over the timed children. A
traced run starts one child that alternates traced and untraced passes and
reports per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or the per-layer ones with
--trace 1). The lines before it name every metric with its unit, the
per-workload metrics that only some workloads have, the sha256 of every
result file, and for traced runs a self-time table. Scratch files go under
.bench_out/ in the checkout; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
from workloads import SHAPES, WORKLOADS  # noqa: E402

TIMED_CHILDREN = 3
# Set-up is short next to a pass and the host's speed drifts over tens of
# seconds, so more processes measure it, spread over the whole run: this many
# set-up-only children go before each timed child.
SETUP_ONLY_PER_TIMED = 2
RUN_LIMIT_S = 170.0
OUT_DIR = ".bench_out"
# Numerical libraries may start one thread per core; keep every child on one.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("avg_set_size", "classes", "lower"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one cset benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shapes", choices=sorted(SHAPES), default="full",
                    help="input sizes; 'tiny' is for the smoke check")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def spawn(args, root: str, index: int, budget: float, deadline: float) -> dict:
    """Run one child to completion; return its result plus its own peak RSS."""
    out = os.path.join(root, OUT_DIR)
    tag = f"{args.workload}-{os.getpid()}-{index}"
    result_path = os.path.join(out, f"{tag}.json")
    log_path = os.path.join(out, f"{tag}.log")
    workdir = os.path.join(out, f"work-{tag}")
    cmd = [
        sys.executable, os.path.join(BENCH, "child.py"),
        "--root", root, "--workload", args.workload, "--shapes", args.shapes,
        "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result_path,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, **THREAD_ENV)
    try:
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                                    stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root)
            status, usage = _wait(proc, deadline)
        if status != 0:
            with open(log_path) as fh:
                tail = fh.read()[-3000:]
            raise RuntimeError(f"child {index} exited with {status}:\n{tail}")
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for path in (result_path, log_path):
            if os.path.exists(path):
                os.remove(path)
    # ru_maxrss is in KiB on Linux; wait4 gives this child's own figure.
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _wait(proc, deadline: float):
    """wait4 the child (per-child rusage); kill it past the deadline.

    A timer thread does the killing, so this process stays asleep instead of
    polling on the CPU the child is measured on.
    """
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise RuntimeError(f"child ran past the {RUN_LIMIT_S:.0f} s limit and was killed")
    return proc.returncode, usage


def aggregate(args, children: list[dict]) -> tuple[dict, int, int, list[str]]:
    """Metrics, attempted, failed and report lines from the children's passes."""
    timed = [c for c in children if c["passes"]]
    passes = [p for c in timed for p in c["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    lines = []
    for i, p in enumerate(passes):
        for op, why in p["failures"].items():
            lines.append(f"FAILED pass {i} {op}: {why.strip()}")
    # Same seed, same inputs: every pass must write byte-identical results,
    # traced or not. Each later pass is one more operation.
    reference = passes[0]["digests"]
    for i, p in enumerate(passes[1:], 1):
        attempted += 1
        if p["digests"] != reference:
            failed += 1
            lines.append(f"FAILED pass {i}: result digests differ from pass 0")
    for name, digest in sorted(reference.items()):
        lines.append(f"sha256 {name} {digest}")

    plain = [p for p in passes if not p["traced"]]
    step = {name: statistics.median(p["steps"][name] for p in plain if name in p["steps"])
            for name in plain[0]["steps"]}
    wall = statistics.median(p["wall_s"] for p in plain)
    lines.append(f"passes {len(plain)}, wall_s each: " + " ".join(f"{p['wall_s']:.4f}" for p in plain))
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
        # NaN when a check failed before measuring it; the run is then incorrect.
        "avg_set_size": statistics.median(
            [p["avg_set_size"] for p in passes if math.isfinite(p["avg_set_size"])] or [0.0]),
    }
    shape = SHAPES[args.shapes][args.workload]
    named = {"error_rate": (failed / attempted, "ratio")}
    if "predict" in step:
        named["fit_temp_s"] = (step["fit_temp"], "s")
        named["calibrate_s"] = (step["calibrate"], "s")
        named["predict_rows_per_s"] = (shape["n_new"] / step["predict"], "1/s")
    if "experiment" in step:
        named["trials_per_s"] = (shape["trials"] / wall, "1/s")
    if "synth_trials" in step:
        named["trials_per_s"] = ((shape["trials"] + shape["oracle_trials"]) / wall, "1/s")
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in named.items()]
    return metrics, attempted, failed, lines


def trace_lines(workload: str, child: dict) -> list[str]:
    per = child["per_layer"]
    lines = [f"self time per traced pass ({workload}):",
             f"  {'span':<40} {'calls':>8} {'ms':>10} {'self ms':>10}"]
    for name, calls, ms, own in child["self_time_table"]:
        lines.append(f"  {name:<40} {calls:>8.0f} {ms:>10.1f} {own:>10.1f}")
    lines.append(
        f"  top-level spans cover {per['trace.accounted_frac']:.1%} of the traced wall "
        f"time ({per['trace.wall_ms']:.0f} ms); tracing overhead "
        f"{per['trace.overhead_frac']:+.2%}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cset", "__init__.py")):
        print(f"error: no cset sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        budgets = [args.seconds]
    else:
        budgets = ([0.0] * SETUP_ONLY_PER_TIMED + [args.seconds / TIMED_CHILDREN]) * TIMED_CHILDREN
    try:
        children = [spawn(args, root, i, b, deadline) for i, b in enumerate(budgets)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, attempted, failed, lines = aggregate(args, children)
    print(f"workload {args.workload} seed {args.seed} shapes {args.shapes} "
          f"children {len(children)} passes {sum(len(c['passes']) for c in children)}")
    if args.trace:
        lines += trace_lines(args.workload, children[0])
        reported = children[0]["per_layer"]
        units = dict(tracing.PER_LAYER)
    else:
        reported = metrics
        units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in reported.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
