#!/usr/bin/env python3
"""Side-by-side battery and seed-sweep comparison of generator families.

Runs the statistical battery on one sample per generator and a 30-seed
sweep of the toy valuation model, then prints a comparison table.  The
short-period congruential generator fails both; the combined generator
and the Mersenne Twister pass.

Usage:
    python scripts/compare_generators.py [-n 100000] [--seeds 30]
"""

from __future__ import annotations

import argparse

from rngaudit.battery import run_battery
from rngaudit.generators import make_generator
from rngaudit.seedlab import seed_sweep

GENERATORS = [
    ("short-period LCG", "lcg:m=262144,a=4649,c=819,seed=1"),
    ("Wichmann-Hill", "wh:seed1=1,seed2=2,seed3=3"),
    ("Mersenne Twister", "mt:seed=5489"),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--count", type=int, default=100_000,
                    help="battery sample length (default 100000)")
    ap.add_argument("--seeds", type=int, default=30,
                    help="number of sweep seeds (default 30)")
    args = ap.parse_args()

    reports = {}
    for label, descriptor in GENERATORS:
        sample = make_generator(descriptor).sample(args.count)
        reports[label] = run_battery(sample)

    names = [r.name for r in reports[GENERATORS[0][0]].results]
    print(f"\nBattery p-values on {args.count} values "
          f"(* = rejected at alpha 0.01)\n")
    header = f"{'test':<20s}" + "".join(f"{label:>20s}" for label, _ in GENERATORS)
    print(header)
    print("-" * len(header))
    for name in names:
        row = f"{name:<20s}"
        for label, _ in GENERATORS:
            match = [r for r in reports[label].results if r.name == name]
            if not match or match[0].verdict == "error":
                row += f"{'(error)':>20s}"
                continue
            r = match[0]
            mark = "*" if r.verdict == "reject" else " "
            row += f"{r.p_value:>18.3g} {mark}"
        print(row)
    for label, _ in GENERATORS:
        rep = reports[label]
        n_errors = sum(1 for r in rep.results if r.verdict == "error")
        print(f"{label}: {rep.n_rejections} rejection(s), {n_errors} error(s)")

    print(f"\nSeed sweep, {args.seeds} seeds, default model "
          f"(1000 paths x 80 steps)\n")
    print(f"{'generator':<20s} {'max |delta| %':>14s} {'flag':>9s}")
    for label, descriptor in GENERATORS:
        sweep = seed_sweep(descriptor, range(1, args.seeds + 1))
        flag = "TRIPPED" if sweep.verdict == "reject" else "ok"
        print(f"{label:<20s} {sweep.statistic:>14.2f} {flag:>9s}")


if __name__ == "__main__":
    main()
