"""Run every workload over several seeds and record the baseline.

Usage, from the root of a checkout:

    python3 bench/baseline.py --out bench/baseline.json

For each workload it runs bench/run.py once per seed 1..SEEDS (untraced) and
once traced, then reports per end-to-end metric the median and the spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median. A spread at or above a third of the metric's
bound in BENCHMARK.json is flagged, because a benchmark that noisy cannot
tell a regression of that bound from run-to-run variation. The output file
holds those figures, the traced per-layer metrics and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from run import THREAD_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """The run's JSON result, every printed 'metric' line by name, and its duration."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed, elapsed


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def environment() -> dict:
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "machine": platform.machine(),
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the baseline JSON here")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "environment": environment(), "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs, printed, elapsed = [], [], []
        for seed in range(1, SEEDS + 1):
            result, named, dt = run_once(workload, seed, seconds, 0)
            runs.append(result)
            printed.append(named)
            elapsed.append(dt)
            steady &= result["correct"]
            print(f"{workload} seed {seed}: {dt:.1f} s, correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"seeds": [1, SEEDS],
                 "run_elapsed_s": statistics.median(elapsed), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = spread(values)
            flag = spr >= bounds[name] / 3
            steady &= not flag
            entry["end_to_end"][name] = {
                "median": med, "spread": spr, "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:<14} median {med:.6g}  spread {spr:.4f}  bound {bounds[name]}"
                  + ("  TOO NOISY" if flag else ""), flush=True)
        entry["other_metrics"] = {
            name: {"median": statistics.median(p[name][0] for p in printed), "unit": unit}
            for name, (_, unit) in printed[0].items() if name not in bounds}
        traced, _, dt = run_once(workload, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_elapsed_s"] = dt
        print(f"  traced run {dt:.1f} s, overhead "
              f"{entry['per_layer']['trace.overhead_frac']:+.3f}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
