"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion
lines; the calibration run tagged ``slow`` is deselected by
``-m "not slow"``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import warnings

import numpy as np
import pytest

from rngaudit.battery import (
    birthday_spacings_test,
    permutation_test,
    run_battery,
)
from rngaudit.cli import main
from rngaudit.generators import (
    LcgParams,
    brute_force_period,
    full_period_predicate,
    make_generator,
)
from rngaudit.seedlab import ToyModelConfig, mc_estimate, seed_sweep
from rngaudit.spectral import (
    acceptance_threshold,
    acceptance_threshold_sq,
    plane_membership,
    point_cloud,
    spectral_accept,
    spectral_accuracy_sq,
)
from rngaudit.stats import summary_verdict

from oracles import closed_form_put, lattice_min_norm_sq

POOR = "lcg:m=262144,a=4649,c=819,seed=1"
POOR_PARAMS = LcgParams(modulus=262144, multiplier=4649, increment=819, seed=1)
TINY_PARAMS = LcgParams(modulus=10, multiplier=7, increment=7, seed=7)


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_full_period_rule_matches_brute_force_everywhere():
    """Exhaustive grid: the arithmetic full-period rule agrees with a
    direct walk of the recurrence for every modulus 2..4096, thirty
    random parameter triples each."""
    rng = random.Random(414243)
    start = time.monotonic()
    checked = 0
    mismatches = []
    for m in range(2, 4097):
        for _ in range(30):
            a = rng.randrange(1, m) if m > 2 else 1
            c = rng.randrange(m)
            y0 = rng.randrange(m)
            params = LcgParams(modulus=m, multiplier=a, increment=c, seed=y0)
            predicted = full_period_predicate(params)
            walked = brute_force_period(params, cap=m) == m
            checked += 1
            if predicted != walked:
                mismatches.append((m, a, c, y0))
    elapsed = time.monotonic() - start
    _criterion(
        "full-period-rule-equivalence",
        not mismatches and elapsed < 60.0,
        f"{checked} triples, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_degenerate_generator_detected():
    """The 10-state generator collapses to the 4-cycle 7,6,9,0 and its
    10^4-value sample fails uniformity and serial tests decisively."""
    period = brute_force_period(TINY_PARAMS, cap=100)
    first = list(make_generator("lcg:m=10,a=7,c=7,seed=7").generate(5))
    report = run_battery(make_generator("lcg:m=10,a=7,c=7,seed=7").sample(10_000))
    p = {r.name: r.p_value for r in report.results}
    ok = (
        period == 4
        and first == [0.6, 0.9, 0.0, 0.7, 0.6]
        and p["t-mean"] < 1e-10
        and p["ks"] < 1e-10
        and p["chi2-uniform"] < 1e-10
        and p["anderson-darling"] < 1e-10
        and p["serial"] < 1e-10
    )
    _criterion(
        "degenerate-seed-detection",
        ok,
        f"period={period}, serial p={p['serial']:.1e}, "
        f"uniformity p<=1e-10 on 4 components",
    )


def test_lattice_accuracy_is_exact():
    """Fifty random multiplier/modulus pairs: the reduction+enumeration
    result equals an exhaustive search, in dimensions 2 through 4."""
    rng = random.Random(515253)
    start = time.monotonic()
    mismatches = 0
    for _ in range(50):
        m = rng.randrange(16, 2**14 + 1)
        a = rng.randrange(2, m)
        params = LcgParams(modulus=m, multiplier=a, increment=0, seed=1)
        for d in (2, 3, 4):
            if spectral_accuracy_sq(params, d)[0] != lattice_min_norm_sq(m, a, d):
                mismatches += 1
    textbook = math.sqrt(spectral_accuracy_sq(TINY_PARAMS, 2)[0])
    elapsed = time.monotonic() - start
    ok = (
        mismatches == 0
        and textbook == pytest.approx(math.sqrt(10), rel=1e-12)
        and elapsed < 120.0
    )
    _criterion(
        "lattice-accuracy-exactness",
        ok,
        f"150 comparisons, {mismatches} mismatches, nu_2(10,7)={textbook:.6f}, "
        f"{elapsed:.1f}s",
    )


def test_hyperplane_phenomenon_reproduced(tmp_path):
    """The known-poor multiplier is rejected, its full-period orbit lies
    exactly on the few planes of the shortest dual vector, and the
    figure artifacts are written."""
    verdict = summary_verdict(spectral_accept(POOR_PARAMS, d_max=6))
    values = make_generator(POOR).generate(262144)
    _, vec = spectral_accuracy_sq(POOR_PARAMS, 3)
    membership = plane_membership(point_cloud(values, 3), vec)
    code = main(["figures", POOR, "--out-dir", str(tmp_path), "--quiet"])
    files_ok = all(
        (tmp_path / name).exists()
        for name in ("pairs.csv", "pairs.svg", "triples.csv")
    )
    ok = (
        verdict == "reject"
        and membership["within_slack"]
        and membership["max_deviation"] <= 1e-9
        and code == 0
        and files_ok
    )
    _criterion(
        "hyperplane-phenomenon",
        ok,
        f"verdict={verdict}, planes={membership['n_planes']}, "
        f"max dev={membership['max_deviation']:.1e}, artifacts={files_ok}",
    )


def test_acceptance_thresholds_exact():
    """Required accuracies per dimension, squared comparisons exact."""
    values = {d: acceptance_threshold(d) for d in (2, 3, 4, 5, 6)}
    squared = {d: acceptance_threshold_sq(d) for d in (2, 3, 4, 5, 6)}
    ok = (
        values[2] == 32768.0
        and values[3] == 1024.0
        and values[4] == pytest.approx(181.01933598375618, rel=1e-15)
        and values[5] == 64.0
        and values[6] == 32.0
        and squared == {2: 2**30, 3: 2**20, 4: 2**15, 5: 2**12, 6: 2**10}
        and all(isinstance(s, int) for s in squared.values())
    )
    _criterion(
        "accuracy-thresholds",
        ok,
        "32768 / 1024 / 181.02 / 64 / 32, squared forms integral",
    )


def test_birthday_duplicate_count_calibrated():
    """Mean duplicate-spacing count over 2000 reference blocks at the
    design point n=512, k=2^24 sits near its Poisson mean of 2."""
    start = time.monotonic()
    values = make_generator("mt:seed=2024").generate(512 * 2000)
    result = birthday_spacings_test(values, n=512, k=2**24)
    mean_y = result.detail["mean_duplicate_spacings"]
    elapsed = time.monotonic() - start
    ok = 1.85 <= mean_y <= 2.15 and elapsed < 60.0
    _criterion(
        "birthday-calibration",
        ok,
        f"mean Y={mean_y:.3f} over 2000 blocks, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_false_positive_rates_within_binomial_band():
    """Two hundred reference samples of 10^5 values: every battery
    component rejects at most 4.5% of them at alpha 0.01 (the 99.9%
    binomial envelope for 200 trials)."""
    start = time.monotonic()
    rejections: dict[str, int] = {}
    n_errors = 0
    for seed in range(1, 201):
        report = run_battery(make_generator(f"mt:seed={seed}").sample(100_000))
        n_errors += sum(1 for r in report.results if r.verdict == "error")
        for r in report.results:
            rejections[r.name] = rejections.get(r.name, 0) + (
                1 if r.verdict == "reject" else 0
            )
    elapsed = time.monotonic() - start
    worst = max(rejections.values()) / 200.0
    ok = (
        n_errors == 0
        and len(rejections) == 9
        and all(count <= 9 for count in rejections.values())  # 9/200 = 0.045
        and elapsed < 900.0
    )
    _criterion(
        "false-positive-calibration",
        ok,
        f"worst rate {worst:.3f} over {sorted(rejections.values())}, "
        f"{elapsed:.0f}s",
    )


def test_ordering_index_is_a_bijection():
    """permutation_test maps the k! orderings one-to-one onto its k!
    bins for every tuple length it accepts: a sample holding each
    ordering five times gives statistic exactly 0 for k = 2..8.  It
    stays 0 when the five sorted tuples are replaced by tuples whose
    first two values tie, which rank as sorted only if the earlier
    position ranks lower, and detail.tied_tuples counts those five."""
    failures = []
    for k in range(2, 9):
        tuples = np.array(list(itertools.permutations(range(1, k + 1))), dtype=np.float64)
        exact = permutation_test(np.tile(tuples / (k + 1), (5, 1)).ravel(), k=k)
        tuples[0, 1] = tuples[0, 0]  # the sorted ordering comes first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # five tied tuples can pass the warning share
            tied = permutation_test(np.tile(tuples / (k + 1), (5, 1)).ravel(), k=k)
        if not (
            exact.statistic == 0.0 and exact.detail["tied_tuples"] == 0
            and tied.statistic == 0.0 and tied.detail["tied_tuples"] == 5
        ):
            failures.append(k)
    _criterion(
        "ordering-index-bijection",
        not failures,
        f"k=2..8 all orderings x5, ties to the earlier position, failing k: {failures}",
    )


def test_seed_dispersion_separates_generators():
    """Thirty-seed sweep at 1000 paths: the short-period generator shows
    at least twice the reference generator's maximal relative delta."""
    config = ToyModelConfig()
    assert config.paths == 1000
    seeds = list(range(1, 31))
    reference = seed_sweep("mt:", seeds, config)
    degenerate = seed_sweep(POOR, seeds, config)
    ratio = degenerate.statistic / reference.statistic
    ok = degenerate.statistic >= 2.0 * reference.statistic
    _criterion(
        "seed-dispersion-separation",
        ok,
        f"lcg {degenerate.statistic:.1f}% vs "
        f"mt {reference.statistic:.1f}% (ratio {ratio:.2f})",
    )


def test_estimator_anchored_to_closed_form():
    """At least 99 of 100 seeded runs land within three standard errors
    of the independent closed-form value of the guarantee."""
    config = ToyModelConfig()
    target = closed_form_put(config)
    inside = 0
    worst_z = 0.0
    for seed in range(1, 101):
        est, se = mc_estimate("mt:", seed, config)
        z = abs(est - target) / se
        worst_z = max(worst_z, z)
        if z < 3.0:
            inside += 1
    ok = inside >= 99
    _criterion(
        "estimator-closed-form-anchor",
        ok,
        f"{inside}/100 within 3 SE of {target:.8f}, worst z={worst_z:.2f}",
    )
