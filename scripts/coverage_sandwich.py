"""Measure marginal coverage of every method across fresh-data trials.

Coverage of the calibrated methods should land between 1 - alpha and
1 - alpha + 1/(n_cal + 1) up to cross-trial noise; the uncalibrated cutoff
has no such floor and drops below the band whenever the score tail is
corrupted. Defaults reproduce the headline measurement in about 20 seconds.
"""

import argparse
import math
import time

import cset
from cset.cli import _pos_int


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=100)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--cal-size", type=_pos_int, default=1000)
    ap.add_argument("--eval-size", type=_pos_int, default=10000)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--concentration", type=float, default=0.0,
                    help="Dirichlet total mass; 0 means the 0.05*K default")
    ap.add_argument("--corruption", default="tail_permute",
                    choices=("none", "temperature", "tail_permute"))
    ap.add_argument("--corruption-param", type=float, default=None,
                    help="default 10, or none with --corruption none")
    ap.add_argument("--penalty", type=float, default=0.01)
    ap.add_argument("--k-reg", type=int, default=5)
    ap.add_argument("--seed", type=int, default=12345)
    return ap, ap.parse_args()


def main():
    ap, args = parse_args()
    param = args.corruption_param
    if param is None:
        param = 0.0 if args.corruption == "none" else 10.0
    a = args.alpha
    try:  # a bad value is a usage error (exit 2), as in the cset CLI
        spec = cset.SynthSpec(
            n=1, n_classes=args.k, concentration=args.concentration,
            corruption=args.corruption, corruption_param=param,
        )
        protocol = cset.TrialProtocol(
            n_trials=args.trials, cal_size=args.cal_size,
            eval_size=args.eval_size, seed=args.seed,
        )
        policies = {
            "raps": cset.MethodPolicy(
                cset.MethodSpec("raps", a, penalty=args.penalty, kreg=args.k_reg)),
            "aps": cset.MethodPolicy(cset.MethodSpec("aps", a)),
            "lac": cset.MethodPolicy(cset.MethodSpec("lac", a)),
            "naive": cset.MethodPolicy(cset.MethodSpec("naive", a)),
        }
    except ValueError as exc:
        ap.error(str(exc))
    t0 = time.perf_counter()
    aggs = cset.run_synth_trials(spec, protocol, policies)
    elapsed = time.perf_counter() - t0

    slack = 1.0 / (args.cal_size + 1)
    print(f"{args.trials} trials, n_cal={args.cal_size}, n_eval={args.eval_size}, "
          f"K={args.k}, alpha={a}  ({elapsed:.1f}s)")
    print(f"target band [{1 - a:.4f}, {1 - a + slack:.4f}] plus 3 SE on each side\n")
    print(f"{'method':<8} {'coverage':>9} {'se':>8} {'size':>8}  verdict")
    for name, agg in aggs.items():
        mean = float(agg.coverage.mean())
        se = float(agg.coverage.std(ddof=1)) / math.sqrt(agg.n_trials)
        lo, hi = 1 - a - 3 * se, 1 - a + slack + 3 * se
        verdict = "in band" if lo <= mean <= hi else (
            "UNDER" if mean < lo else "OVER")
        print(f"{name:<8} {mean:>9.5f} {se:>8.5f} {agg.avg_size.mean():>8.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
