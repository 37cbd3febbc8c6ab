"""One workload in one process: set up, then timed passes until the budget.

Started by run.py, never by hand. Set-up time runs from the parent's
spawn timestamp (CLOCK_MONOTONIC is shared by all processes) to the first
timed call, so it covers interpreter start, imports, input generation, file
writes and the warm-up pass. The result goes to a JSON file named on the
command line.

With --trace 1 the passes alternate traced and untraced, starting traced so
that the top-level spans see the process's RSS rise from its set-up level.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--shapes", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cset  # noqa: F401  (import time belongs to set-up)

    if not os.path.abspath(cset.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported cset from {cset.__file__}, not from {src}")
    import tracer as tracing
    import workloads

    shape = workloads.SHAPES[args.shapes][args.workload]
    wl = workloads.WORKLOADS[args.workload](args.workdir, args.seed, shape)
    wl.setup()
    wl.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # fails loudly before timing if a layer function is gone
        tracer.uninstall()

    setup_s = time.monotonic() - args.spawned_at
    start = time.monotonic()
    passes = []
    while args.budget > 0:  # a budget of 0 measures set-up only
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.new_pass()
            tracer.install()
        began = time.monotonic()
        try:
            p = wl.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        passes.append(dict(p.to_json(), traced=traced))
        now = time.monotonic()
        need_untraced = tracer is not None and len(passes) < 2
        # Start another pass only if one more like the last (checks included) fits.
        if not need_untraced and (now - start) + (now - began) > args.budget:
            break

    result = {"setup_s": setup_s, "passes": passes}
    if tracer is not None:
        traced_walls = [p["wall_s"] * 1e3 for p in passes if p["traced"]]
        plain_walls = [p["wall_s"] * 1e3 for p in passes if not p["traced"]]
        result["per_layer"] = tracing.summarize(tracer, traced_walls, plain_walls)
        result["self_time_table"] = tracing.self_time_table(tracer, len(traced_walls))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({
                    "workload": args.workload, "seed": args.seed, "clock": "perf_counter",
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [s[:4] for s in tracer.spans],
                }, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
