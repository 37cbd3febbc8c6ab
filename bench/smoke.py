"""Fast self-check of the benchmark harness (about half a minute).

Usage, from the root of a checkout:

    python3 bench/smoke.py

Runs every workload at tiny shapes, untraced and traced, and checks that
each run is correct, that its metric names and units are exactly those in
BENCHMARK.json, that every layer is called by some workload, and that the
tracer refuses to run when a layer function it wraps has gone. It also runs
the benchmark in a directory without the program and expects it to fail
without printing a result. Exits nonzero on the first problem.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
from run import OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SmokeFailure(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SmokeFailure(msg)


def run(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--shapes", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def check_result(proc, workload: str, trace: int, spec: dict) -> dict:
    where = f"{workload} trace={trace}"
    require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
    require(result["correct"] and result["failed"] == 0, f"{where}: failed\n{proc.stdout[-3000:]}")
    require(result["attempted"] >= 1, f"{where}: nothing attempted")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{where}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
            f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}")
        if not trace:
            require(m["value"] > 0, f"{where}: {name} is {m['value']}")
    return result["metrics"]


def check_tracer_fails_loudly() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    for layer in tracing.LAYERS:
        importlib.import_module(f"cset.{layer}")
    score_store = importlib.import_module("cset.score_store")
    original = score_store.sort_scores
    del score_store.sort_scores
    try:
        tracer = tracing.Tracer()
        try:
            tracer.install()
        except LookupError:
            pass
        else:
            raise SmokeFailure("tracer installed with score_store.sort_scores missing")
    finally:
        score_store.sort_scores = original
    require(importlib.import_module("cset").sort_scores is original, "tracer left a wrapper behind")


def check_fails_without_program(spec: dict) -> None:
    bare = os.path.abspath(os.path.join(OUT_DIR, "smoke-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "benchmark succeeded without the program")
    require(not proc.stdout.strip(), f"benchmark printed a result without the program: {proc.stdout}")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names")
    calls = dict.fromkeys(tracing.LAYERS + tracing.FUNCTIONS, 0.0)
    for workload in WORKLOADS:
        check_result(run(workload, 0), workload, 0, spec)
        per_layer = check_result(run(workload, 1), workload, 1, spec)
        for name in calls:
            calls[name] += per_layer[f"{name}.calls"]["value"]
        print(f"ok {workload}", flush=True)
    unused = [name for name, n in calls.items() if n == 0]
    require(not unused, f"no workload calls {unused}")
    check_tracer_fails_loudly()
    check_fails_without_program(spec)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
