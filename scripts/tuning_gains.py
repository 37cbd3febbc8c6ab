"""What the penalty buys on data with noisy score tails.

Two comparisons, both against plain cumulative-mass sets:
  size        tune the penalty to minimize mean set size (sparse rows,
              shuffled tail, the regime where unpenalized sets blow up)
  adaptive    tune it to minimize size-stratified coverage violation on a
              wide-K generator where unpenalized sets undercover on small
              sets and overcover on huge ones

Each block prints per-trial medians plus the penalties the tuner picked.
"""

import argparse

import numpy as np

import cset


def run_block(name, spec, protocol, objective, tuned_spec, plain_spec):
    policies = {
        "tuned": cset.MethodPolicy(tuned_spec, tune_objective=objective),
        "plain": cset.MethodPolicy(plain_spec),
    }
    aggs = cset.run_synth_trials(spec, protocol, policies)
    tuned, plain = aggs["tuned"], aggs["plain"]
    pens = np.unique(tuned.penalties)
    print(f"--- {name} (K={spec.n_classes}, concentration={spec.concentration}, "
          f"{protocol.n_trials} trials)")
    print(f"  penalties chosen: {', '.join(str(p) for p in pens)}")
    print(f"  {'':<8} {'coverage':>9} {'size':>8} {'violation':>10}")
    for label, agg in (("tuned", tuned), ("plain", plain)):
        print(f"  {label:<8} {agg.median_coverage:>9.4f} "
              f"{agg.median_size:>8.2f} {agg.median_sscv:>10.4f}")
    if objective == "size":
        print(f"  size ratio tuned/plain: "
              f"{tuned.avg_size.mean() / plain.avg_size.mean():.3f}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:  # a bad value is a usage error (exit 2), as in the cset CLI
        blocks = [(
            "size objective",
            cset.SynthSpec(n=1, n_classes=300, concentration=0.40,
                           corruption="tail_permute", corruption_param=1),
            cset.TrialProtocol(n_trials=args.trials, cal_size=2000,
                               eval_size=6000, tune_size=2000, seed=args.seed),
            "size",
        ), (
            "adaptiveness objective",
            cset.SynthSpec(n=1, n_classes=1000, concentration=1.0,
                           corruption="tail_permute", corruption_param=1),
            cset.TrialProtocol(n_trials=max(args.trials // 2, 1), cal_size=1000,
                               eval_size=6000, tune_size=1000, seed=args.seed + 1),
            "adaptiveness",
        )]
        tuned, plain = cset.MethodSpec("raps", args.alpha), cset.MethodSpec("aps", args.alpha)
    except ValueError as exc:
        ap.error(str(exc))
    for block in blocks:
        run_block(*block, tuned, plain)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
