"""The four-family statistical test battery over a uniform sample.

Families: a global-uniformity composite (location, scale, spread
homogeneity, and three distributional distances), a permutation
orderings test, a serial d-ary tuple test, and a birthday-spacings
test.  The tuple-based tests cut the sample into disjoint tuples.

The battery runs every enabled family, never aborts on a single
family's failure (errors become report entries), and applies no
multiple-testing correction unless the Bonferroni flag is set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .stats import (
    CHI2_MIN_EXPECTED,
    DEFAULT_ALPHA,
    STAT_BLOCK,
    TestResult,
    anderson_darling_uniform,
    chi_square_gof,
    ks_test_uniform,
    levene_test,
    _values,
    poisson_pmf,
    t_record,
    variance_record,
    # the composite builds these two records itself; the public tests stay
    # importable from here, as before
    t_test_mean,
    variance_test,
)

__all__ = [
    "BatteryConfig",
    "BatteryReport",
    "run_battery",
    "global_uniformity",
    "permutation_test",
    "serial_test",
    "birthday_spacings_test",
    "TEST_REGISTRY",
]

DEFAULT_TESTS = ("uniformity", "permutation", "serial", "birthday")
TIE_WARN_FRACTION = 1e-4


@dataclass(frozen=True)
class BatteryConfig:
    """Knobs for one battery run.  Defaults follow the audit recipe:

    alpha 0.01, permutation tuples of 3, serial test with 8 digits over
    pairs, birthday spacings with 512 draws into 2**24 cells.
    """

    tests: tuple[str, ...] = DEFAULT_TESTS
    alpha: float = DEFAULT_ALPHA
    permutation_k: int = 3
    serial_d: int = 8
    serial_l: int = 2
    birthday_n: int = 512
    birthday_k: int = 2**24
    levene_groups: int = 10
    gof_bins: int = 100
    bonferroni: bool = False

    def __post_init__(self):
        if not self.tests:
            raise ValueError("tests must name at least one test family")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 2 <= self.permutation_k <= 8:
            raise ValueError("permutation_k must lie in [2, 8]")
        if self.serial_d < 2:
            raise ValueError("serial_d must be >= 2")
        if self.serial_l < 1:
            raise ValueError("serial_l must be >= 1")
        if self.birthday_n < 2:
            raise ValueError("birthday_n must be >= 2")
        # block values times k must stay below 2**63 for their int64 cast
        if not 2 <= self.birthday_k <= 2**62:
            raise ValueError("birthday_k must lie in [2, 2**62]")
        if self.levene_groups < 2:
            raise ValueError("levene_groups must be >= 2")
        if self.gof_bins < 2:
            raise ValueError("gof_bins must be >= 2")


@dataclass
class BatteryReport:
    """Everything one battery run produced.

    ``results`` holds one record per test in run order, followed by one
    ``"error"`` record for each family that could not run.
    """

    results: list[TestResult]
    n_rejections: int = field(init=False)

    def __post_init__(self):
        self.n_rejections = sum(1 for r in self.results if r.verdict == "reject")


def _tuples(values: np.ndarray, k: int) -> np.ndarray:
    """View the sample as disjoint tuples of k successive values."""
    t = values.size // k
    if t < 1:
        raise ValueError(f"sample too short for tuples of {k}")
    return values[: t * k].reshape(t, k)


def _row_blocks(rows: np.ndarray, cells: int = 1):
    """Successive slices of ``rows`` along its first axis: about STAT_BLOCK
    values each, but at least ``cells`` rows, so that counting a block into
    ``cells`` cells costs no more than reading its rows."""
    step = max(cells, STAT_BLOCK // math.prod(rows.shape[1:]))
    return (rows[start:start + step] for start in range(0, rows.shape[0], step))


# ---------------------------------------------------------------------------
# permutation orderings

def permutation_test(
    sample,
    k: int = 3,
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
    """Chi-square test of the k! relative-ordering frequencies.

    Every disjoint tuple of k successive values is mapped to the index
    of its rank pattern (its Lehmer code, 0 .. k! - 1); the index counts
    are tested against uniformity over the k! orderings.  Exact ties
    within a tuple are resolved toward the earlier index, counted, and
    flagged when they exceed 0.01% of tuples.
    """
    if not 2 <= k <= 8:
        raise ValueError("tuple length k must lie in [2, 8]")
    v = _values(sample)
    tup = _tuples(v, k)
    t = tup.shape[0]
    kfact = math.factorial(k)
    expected = t / kfact
    if expected < CHI2_MIN_EXPECTED:
        raise ValueError(
            f"{t} tuples over {kfact} orderings gives expected {expected:.2f}"
            f" < {CHI2_MIN_EXPECTED:g}"
        )
    # Lehmer digits straight from the values; exact ties fall on the
    # strict-less side, matching the earlier-index-ranks-lower rule.  The
    # codes run below k! <= 40320, so they take one byte up to k = 5 and
    # two up to k = 8, and each column is compared as a contiguous copy.
    width = np.uint8 if k <= 5 else np.uint16
    counts = np.zeros(kfact, dtype=np.int64)
    ties = 0
    for rows in _row_blocks(tup, kfact):
        cols = rows.T.copy()
        index = np.zeros(rows.shape[0], dtype=width)
        tie_rows = np.zeros(rows.shape[0], dtype=bool)
        for i in range(k - 1):
            digit = np.zeros(rows.shape[0], dtype=width)
            for j in range(i + 1, k):
                digit += cols[j] < cols[i]
                tie_rows |= cols[j] == cols[i]
            digit *= math.factorial(k - 1 - i)
            index += digit
        ties += int(np.count_nonzero(tie_rows))
        counts += np.bincount(index, minlength=kfact)
    result = chi_square_gof(counts, np.full(kfact, expected), alpha, name="permutation")
    result.detail.update(
        {"k": k, "mode": "disjoint", "n_tuples": int(t), "tied_tuples": ties}
    )
    if ties > TIE_WARN_FRACTION * t:
        result.detail["tie_warning"] = True
        warnings.warn(
            f"permutation: {ties} of {t} tuples contain exact ties", stacklevel=2
        )
    return result


# ---------------------------------------------------------------------------
# serial test

def serial_test(
    sample,
    d: int = 8,
    l: int = 2,
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
    """Chi-square test of l-tuples of d-ary digits over all d**l cells.

    The sample is cut into disjoint l-tuples.  Each value contributes
    the digit floor(x * d); a tuple's cell index reads its digits most
    significant first.  All cells enter the statistic, referred to
    chi-square with d**l - 1 degrees.
    """
    if d < 2:
        raise ValueError("digit base d must be >= 2")
    if l < 1:
        raise ValueError("tuple length l must be >= 1")
    v = _values(sample)
    tup = _tuples(v, l)
    t = tup.shape[0]
    k = d**l
    lam = t / k
    if lam < CHI2_MIN_EXPECTED:
        d_max = int(math.floor((t / CHI2_MIN_EXPECTED) ** (1.0 / l)))
        raise ValueError(
            f"{t} tuples over {k} cells gives expected {lam:.2f}"
            f" < {CHI2_MIN_EXPECTED:g}; "
            f"the largest admissible base at this length is d={d_max}"
        )
    counts = np.zeros(k, dtype=np.int64)
    for rows in _row_blocks(tup, k):
        digits = np.minimum((rows * d).astype(np.int64), d - 1)
        cells = digits[:, 0]
        for pos in range(1, l):
            cells = cells * d + digits[:, pos]
        counts += np.bincount(cells, minlength=k)
    result = chi_square_gof(counts, np.full(k, lam), alpha, name="serial")
    result.detail.update(
        {"d": d, "l": l, "cells": int(k), "mode": "disjoint", "n_tuples": int(t)}
    )
    return result


# ---------------------------------------------------------------------------
# birthday spacings

def _merge_bins(counts: np.ndarray, expected: np.ndarray):
    """Pool adjacent bins left to right until every pooled bin expects at
    least ``CHI2_MIN_EXPECTED``."""
    pooled_c, pooled_e = [], []
    acc_c, acc_e = 0, 0.0
    for c, e in zip(counts, expected):
        acc_c += int(c)
        acc_e += float(e)
        if acc_e >= CHI2_MIN_EXPECTED:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
            acc_c, acc_e = 0, 0.0
    if acc_e > 0.0 or acc_c > 0:
        if pooled_c:
            pooled_c[-1] += acc_c
            pooled_e[-1] += acc_e
        else:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
    return np.array(pooled_c, dtype=np.int64), np.array(pooled_e, dtype=np.float64)


def _duplicate_spacings(blocks: np.ndarray, k: int):
    """Per row of ``blocks`` (n values each, drawn into k cells): the count
    of duplicated spacings Y and the count of cell collisions.  The cells
    are 32-bit while k <= 2^31, half the bytes for the row sorts, and
    64-bit above.  The cast before the clamp to k - 1 cannot overflow:
    v * k for v in [0, 1) rounds to at most k, and is exact at k = 2^31.
    """
    n = blocks.shape[1]
    width = np.int32 if k <= 2**31 else np.int64
    y, collisions = [], []
    for rows in _row_blocks(blocks):
        cells = np.minimum((rows * k).astype(width), k - 1)
        cells.sort(axis=1)
        spacings = np.diff(cells, axis=1)
        collisions.append((n - 1) - np.count_nonzero(spacings, axis=1))
        spacings.sort(axis=1)
        # Y = (n - 1) - #distinct spacings
        y.append((n - 2) - np.count_nonzero(np.diff(spacings, axis=1), axis=1))
    return np.concatenate(y), np.concatenate(collisions)


def birthday_spacings_test(
    sample,
    n: int = 512,
    k: int = 2**24,
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
    """Marsaglia-style birthday spacings test.

    The sample is cut into disjoint blocks of n values, each value drawn
    into one of k cells.  Within a block the sorted cell numbers give
    n - 1 spacings; the per-block statistic Y counts duplicated spacing
    values, Y = (n - 1) - #distinct.  Y is approximately Poisson with
    mean n**3 / (4k); the histogram of Y over blocks is tested by
    chi-square with adjacent bins pooled to expected counts of 5.
    """
    v = _values(sample)
    blocks = v.size // n
    if blocks < 20:
        raise ValueError(
            f"only {blocks} disjoint blocks of {n}; need at least 20"
        )
    lam = n**3 / (4.0 * k)
    y, cell_collisions = _duplicate_spacings(v[: blocks * n].reshape(blocks, n), k)
    y_max = int(y.max())
    counts = np.bincount(y, minlength=y_max + 1)
    pmf = np.array([poisson_pmf(j, lam) for j in range(y_max + 1)])
    expected = blocks * pmf
    # close the support with the upper tail mass
    tail = blocks * max(1.0 - pmf.sum(), 0.0)
    counts = np.append(counts, 0)
    expected = np.append(expected, tail)
    pooled_c, pooled_e = _merge_bins(counts, expected)
    if pooled_c.size < 2:
        raise ValueError("too few blocks for a spacing histogram; increase the sample")
    result = chi_square_gof(pooled_c, pooled_e, alpha, name="birthday-spacings")
    result.detail.update(
        {
            "n": int(n),
            "cells": int(k),
            "n_blocks": int(blocks),
            "poisson_mean": lam,
            "mean_duplicate_spacings": float(y.mean()),
            "mean_cell_collisions": float(cell_collisions.mean()),
            "histogram_bins": int(pooled_c.size),
        }
    )
    if not 0.5 <= lam <= 20.0:
        result.detail["poisson_mean_warning"] = (
            "mean outside [0.5, 20]; the Poisson approximation degrades"
        )
        warnings.warn(
            f"birthday-spacings: Poisson mean {lam:.3g} outside [0.5, 20]",
            stacklevel=2,
        )
    return result


# ---------------------------------------------------------------------------
# global uniformity composite

def _bin_thresholds(bins: int) -> np.ndarray:
    """t_k for k = 1 .. bins - 1: the least double with fl(t_k * bins) >= k,
    so that the value x falls in bin min(floor(fl(x * bins)), bins - 1)
    exactly when t_k <= x < t_(k+1).  k / bins is within an ulp of t_k."""
    k = np.arange(1, bins, dtype=np.float64)
    t = k / bins
    while np.any(low := t * bins < k):
        t[low] = np.nextafter(t[low], 1.0)
    while np.any(high := np.nextafter(t, 0.0) * bins >= k):
        t[high] = np.nextafter(t[high], 0.0)
    return t


def _sorted_bin_counts(ordered: np.ndarray, bins: int) -> np.ndarray:
    """The counts of the ascending sample in ``bins`` equal bins of [0, 1),
    bin min(floor(fl(x * bins)), bins - 1) for each value x, read off the
    sorted copy at the bin thresholds.

    A value whose int64 cell would be negative (at or below -1 / bins, at
    or past 2^63 / bins, or not finite) makes ``np.bincount`` refuse the
    cells; its two extreme values, whose cells bound all the others,
    meet that check as the whole sample would.
    """
    np.bincount(np.minimum((ordered[[0, -1]] * bins).astype(np.int64), bins - 1))
    edges = np.searchsorted(ordered, _bin_thresholds(bins))
    return np.diff(edges, prepend=0, append=ordered.size)


def global_uniformity(
    sample,
    alpha: float = DEFAULT_ALPHA,
    levene_groups: int = 10,
    gof_bins: int = 100,
) -> list[TestResult]:
    """Location, scale, spread and distributional-distance checks.

    Runs, in order: t test of the mean against 1/2, one-sample variance
    test against 1/12, Levene over contiguous blocks, Kolmogorov-Smirnov,
    equiprobable-bin chi-square, and Anderson-Darling.
    """
    v = _values(sample)
    n = v.size
    if n < 100:
        raise ValueError("global uniformity needs at least 100 observations")
    # one mean and one variance for the t and variance records: v.std(ddof=1)
    # is the square root of v.var(ddof=1), both correctly rounded
    mean = float(v.mean())
    var = float(v.var(ddof=1))
    results = [
        t_record(n, mean, math.sqrt(var), 0.5, alpha),
        variance_record(n, var, 1.0 / 12.0, alpha),
        levene_test(v, levene_groups, alpha),
    ]
    # sorted once for both distance tests and the bins, which leave a sorted
    # sample as it is; only now, so the copy never meets the temporaries of
    # the three above
    ordered = np.sort(v)
    results.append(ks_test_uniform(ordered, alpha))
    # chi_square_gof's own check, made before the gof_bins-long arrays exist
    if n < gof_bins:
        raise ValueError("expected counts below 1 break the chi-square approximation")
    results.append(chi_square_gof(_sorted_bin_counts(ordered, gof_bins),
                                  np.full(gof_bins, n / gof_bins), alpha, name="chi2-uniform"))
    results.append(anderson_darling_uniform(ordered, alpha))
    results[0].detail["empirical_mean"] = mean
    results[1].detail["empirical_variance"] = var
    return results


# ---------------------------------------------------------------------------
# the battery

def _run_uniformity(sample, config, alpha):
    return global_uniformity(sample, alpha, config.levene_groups, config.gof_bins)


def _run_permutation(sample, config, alpha):
    return permutation_test(sample, config.permutation_k, alpha)


def _run_serial(sample, config, alpha):
    return serial_test(sample, config.serial_d, config.serial_l, alpha)


def _run_birthday(sample, config, alpha):
    return birthday_spacings_test(sample, config.birthday_n, config.birthday_k, alpha)


TEST_REGISTRY = {
    "uniformity": _run_uniformity,
    "permutation": _run_permutation,
    "serial": _run_serial,
    "birthday": _run_birthday,
}

_RESULTS_PER_TEST = {"uniformity": 6}


def run_battery(sample, config: BatteryConfig | None = None) -> BatteryReport:
    """Run every enabled test family; per-family errors become entries.

    With ``bonferroni=True`` the working level is alpha divided by the
    number of component results the enabled families produce.
    """
    if config is None:
        config = BatteryConfig()
    alpha = config.alpha
    if config.bonferroni:
        alpha = config.alpha / sum(_RESULTS_PER_TEST.get(t, 1) for t in config.tests)
    results: list[TestResult] = []
    errors: list[TestResult] = []
    for name in config.tests:
        runner = TEST_REGISTRY.get(name)
        try:
            if runner is None:
                raise ValueError(f"unknown test {name!r}")
            out = runner(sample, config, alpha)
        except Exception as exc:
            errors.append(TestResult(name, None, None, None, {"error": str(exc)}, "error"))
            continue
        results.extend(out if isinstance(out, list) else [out])
    return BatteryReport(results + errors)
