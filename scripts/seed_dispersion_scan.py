#!/usr/bin/env python3
"""How the per-seed window length drives valuation dispersion.

For a short-period generator, each seed starts the valuation at a
different point of the same fixed orbit.  When one run consumes a
sizeable fraction of the period, different seeds average different
stretches of the orbit and the estimates disperse; once a run wraps all
the way around, every seed sees the same cycle average and the
dispersion collapses.  This scan varies the horizon (hence the window
length) at fixed paths and prints the maximal cross-seed delta next to
the Mersenne Twister baseline.

Usage:
    python scripts/seed_dispersion_scan.py [--paths 1000] [--seeds 10]
"""

from __future__ import annotations

import argparse

from rngaudit.generators import make_generator
from rngaudit.seedlab import ToyModelConfig, seed_sweep

LCG = "lcg:m=262144,a=4649,c=819,seed=1"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=1000)
    ap.add_argument("--seeds", type=int, default=10,
                    help="seeds per sweep (default 10; 30 matches the audit)")
    ap.add_argument("--steps", type=int, nargs="*",
                    default=[20, 40, 80, 128, 256, 512],
                    help="horizon lengths to scan")
    args = ap.parse_args()

    period = make_generator(LCG).params.modulus
    seeds = range(1, args.seeds + 1)
    print(f"{args.paths} paths per seed, {args.seeds} seeds, "
          f"generator period {period}\n")
    print(f"{'steps':>6s} {'uniforms/run':>13s} {'window/period':>14s} "
          f"{'lcg max |delta| %':>18s} {'mt max |delta| %':>17s}")
    for steps in args.steps:
        config = ToyModelConfig(paths=args.paths, horizon_steps=steps)
        window = args.paths * steps  # one uniform per normal, two per pair
        lcg = seed_sweep(LCG, seeds, config)
        mt = seed_sweep("mt:", seeds, config)
        print(f"{steps:>6d} {window:>13d} {window / period:>14.2f} "
              f"{lcg.statistic:>18.2f} {mt.statistic:>17.2f}")
    print("\nRead the excess of the first column over the baseline: short "
          "horizons\nare noisy for any generator, but only the short-period "
          "one keeps a\nlarge excess until its runs wrap the full period, "
          "after which every\nseed averages the same cycle and the gap closes.")


if __name__ == "__main__":
    main()
