#!/usr/bin/env python3
"""Reproduce the hyperplane figures: a poor multiplier vs a good one.

Writes point-cloud artifacts for two congruential generators and prints
their lattice accuracy tables side by side.  The poor generator's pairs
collapse onto a handful of parallel lines (open pairs.svg to see them);
the good one fills the square.

Usage:
    python scripts/reproduce_figures.py [--out-dir figures]
"""

from __future__ import annotations

import argparse
import pathlib

from rngaudit.cli import FIGURE_DESCRIPTOR
from rngaudit.generators import make_generator
from rngaudit.spectral import (
    export_cloud_csv,
    export_cloud_svg,
    plane_membership,
    point_cloud,
    spectral_accept,
    spectral_accuracy_sq,
)
from rngaudit.stats import summary_verdict

GOOD_DESCRIPTOR = "lcg:m=2147483647,a=742938285,c=0,seed=1"


def run_one(descriptor: str, out_dir: pathlib.Path, n_values: int) -> None:
    gen = make_generator(descriptor)
    records = spectral_accept(gen.params, d_max=6)
    print(f"\n{descriptor}")
    print(f"{'d':>3s} {'accuracy':>14s} {'threshold':>12s}  verdict")
    for d, r in enumerate(records, 2):
        ok = "pass" if r.verdict == "pass" else "REJECT"
        print(f"{d:>3d} {r.statistic:>14.2f} "
              f"{r.detail['threshold']:>12.2f}  {ok}")
    print(f"overall: {summary_verdict(records, 'accept')}")

    sample = gen.sample(min(gen.params.modulus, n_values))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / descriptor.split(":")[1].replace(",", "_").replace("=", "")
    pairs = point_cloud(sample, 2)
    triples = point_cloud(sample, 3)
    export_cloud_csv([pairs, triples], [f"{stem}-pairs.csv", f"{stem}-triples.csv"])
    export_cloud_svg(pairs, f"{stem}-pairs.svg")
    print(f"wrote {stem}-pairs.csv / .svg and {stem}-triples.csv "
          f"({len(pairs)} pairs)")

    # how concentrated is the orbit? count the planes of the shortest
    # dual vector in three dimensions
    _, vec = spectral_accuracy_sq(gen.params, 3)
    fit = plane_membership(triples, vec)
    print(f"shortest 3-D dual vector {vec}: {fit['n_planes']} planes, "
          f"max deviation {fit['max_deviation']:.2e}, "
          f"{'exact fit' if fit['within_slack'] else 'no plane structure'}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="figures", help="artifact directory")
    ap.add_argument("-n", "--n-values", type=int, default=1 << 18,
                    help="sample length cap per generator (default 2^18)")
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    run_one(FIGURE_DESCRIPTOR, out, args.n_values)
    run_one(GOOD_DESCRIPTOR, out, args.n_values)


if __name__ == "__main__":
    main()
