"""Goodness-of-fit primitives shared by the test battery.

p-values are computed from hand-rolled special functions so the package
has no runtime dependency beyond numpy: the regularized incomplete
gamma and beta functions (series plus continued-fraction evaluation in
the style of the classical Numerical Recipes routines), the asymptotic
Kolmogorov series, and the Anderson-Darling limit distribution in the
polynomial approximation of Marsaglia & Marsaglia (2004).  Each is
cross-checked against independent oracles in the test suite.

Every test returns a :class:`TestResult` whose verdict is ``"reject"``
exactly when ``p_value < alpha``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ALPHA = 0.01
# Smallest expected bin count at which the chi-square law of Pearson's
# statistic is trusted: chi_square_gof warns below it, the tuple tests
# refuse to run below it and birthday spacings pools bins up to it.
CHI2_MIN_EXPECTED = 5.0

_ITMAX = 500
_EPS = 1e-15
_FPMIN = 1e-300
# the terms of kolmogorov_sf's alternating series
_KS_TERMS = 100
# anderson_darling_uniform clamps values into [_AD_CLAMP, 1 - _AD_CLAMP]
_AD_CLAMP = 1e-12
# numpy's log and log1p of the two clamped values, as its array kernels give
# them: a contiguous array takes the same SIMD path at any length
_AD_LOGS = np.log([_AD_CLAMP, 1.0 - _AD_CLAMP])
_AD_LOG1PS = np.log1p([-_AD_CLAMP, -(1.0 - _AD_CLAMP)])
# The battery's kernels walk a sample this many values at a time, so that a
# block and its temporaries (256 KiB each) stay in the L2 cache, and no
# temporary grows with the sample.
STAT_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# special functions

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling-series coefficients B_2k / (2k (2k - 1)) of the error term
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirlerr(s: float) -> float:
    """lgamma(s) - ((s - 1/2) log s - s + log(2 pi) / 2) for s > 0.

    The Stirling series is used from s = 10, where its truncation error is
    below 1e-16; smaller s climb there by the exact recurrence
    stirlerr(s) = stirlerr(s + 1) + (s + 1/2) log1p(1/s) - 1.
    """
    shift = 0.0
    while s < 10.0:
        shift += (s + 0.5) * math.log1p(1.0 / s) - 1.0
        s += 1.0
    w = 1.0 / (s * s)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return shift + series / s


def _log1pmx(t: float) -> float:
    """log(1 + t) - t for t >= -1/2, without cancellation near t = 0.

    For |t| <= 1/2 this uses log(1 + t) = 2 atanh(r), r = t / (2 + t), so
    that log(1 + t) - t = r (2 (r^2/3 + r^4/5 + ...) - t) with ratio r^2 <= 1/9.
    """
    if t > 0.5:
        return math.log1p(t) - t
    r = t / (2.0 + t)
    r2 = r * r
    power = 1.0
    total = 0.0
    for k in range(3, 41, 2):  # (1/9)^19 < 1e-18
        power *= r2
        term = power / k
        total += term
        if term <= 1e-17 * total:
            break
    return r * (2.0 * total - t)


def _log_ratio_term(k: float, m: float, scale: float = 1.0) -> float:
    """k log(scale m / k) - (scale m - k), accurate for any size of k.

    This is the part of log(m^k e^-m / Gamma(k)) (Temme's form) that cancels
    when k is large and m is near k; written as k * log1pmx(d / k) with
    d = scale m - k it keeps full relative accuracy.  Far below k the
    logarithm is taken directly, so that m << k neither rounds 1 + d/k to
    zero nor loses m to the subtraction.
    """
    d = scale * m - k
    t = d / k
    if t >= -0.5:
        return k * _log1pmx(t)
    return k * (math.log(m) + math.log(scale) - math.log(k)) - d


def _log_gamma_prefactor(s: float, x: float) -> float:
    """log(x^s e^-x / Gamma(s)) without the cancellation of its naive form.

    Temme's form (DiDonato & Morris 1986, ACM TOMS 12:377):
    s log1pmx((x - s)/s) + log(s / 2 pi)/2 - stirlerr(s).  The naive
    -x + s log x - lgamma(s) cancels terms of size ~10 s at large s.
    """
    return _log_ratio_term(s, x) + 0.5 * math.log(s) - _HALF_LOG_2PI - _stirlerr(s)


def _gamma_p_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by its power series."""
    term = 1.0 / s
    total = term
    for n in range(1, _ITMAX + 1):
        term *= x / (s + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(_log_gamma_prefactor(s, x))


def _lentz(c: float, d: float, units) -> float:
    """Modified Lentz evaluation of a continued fraction (Numerical Recipes
    ``gcf`` and ``betacf``).

    The value starts at h = 1/d with Lentz's ratio c.  Each of ``units``
    is a run of (a, b) terms, each applying h *= D C with
    D = 1/(b + a D) and C = b + a/C, both kept away from zero by _FPMIN.
    Convergence is tested once per unit, after its last term, and at most
    _ITMAX units are taken: a fraction that has not converged by then
    returns its last value.
    """
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for unit in itertools.islice(units, _ITMAX):
        for an, bn in unit:
            d = an * d + bn
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = bn + an / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _gamma_q_contfrac(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) by continued fraction.

    The classical continued fraction, stable for x >= s + 1, one term per
    Lentz unit.  Its b terms are x + 1 - s + 2i, formed by repeated
    addition.
    """

    def units(b):
        for i in itertools.count(1):
            b += 2.0
            yield ((-i * (i - s), b),)

    b = x + 1.0 - s
    return math.exp(_log_gamma_prefactor(s, x)) * _lentz(1.0 / _FPMIN, b, units(b))


def chi_square_sf(x: float, df: int) -> float:
    """Survival function P(X > x) of the chi-square law with df degrees.

    The prefactor (x/2)^s e^(-x/2) / Gamma(s), s = df/2, is taken in
    Temme's form, so it stays accurate to ~1e-15 relative at any df.  The
    tests hold the result to 1e-12 relative against scipy for df <= 719
    and against mpmath at df = 99999 with x/2 above s + 1 (the continued
    fraction).  Both expansions stop after _ITMAX steps and return what
    they have, unconverged.  Below s + 1 the power series converges
    only while df is below a few thousand when x is within a few sqrt(df)
    of df: at df = 1e5, x = df the result is 2.5% off.  Above it the
    continued fraction is not accurate at large df either: at x = df + 2
    it needs 712 units at df = 1e6 and is 1.2e-9 relative off scipy, and
    1538 units at df = 1e7, 2.4e-3 off.  Extreme statistics underflow
    cleanly to 0.0.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    s = 0.5 * df
    xx = 0.5 * x
    if xx == 0.0:  # covers x == 0 and subnormals whose half rounds to zero
        return 1.0
    if xx < s + 1.0:
        return min(max(1.0 - _gamma_p_series(s, xx), 0.0), 1.0)
    return min(max(_gamma_q_contfrac(s, xx), 0.0), 1.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, its even and
    odd terms of each order m as one Lentz unit."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0

    def units():
        for m in itertools.count(1):
            m2 = 2 * m
            yield (
                (m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0),
                (-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0),
            )

    return _lentz(1.0, 1.0 - qab * x / qap, units())


def betainc_reg(a: float, b: float, x: float, y: float | None = None) -> float:
    """Regularized incomplete beta function I_x(a, b).

    ``y`` is 1 - x.  A caller that can form it from its own factors, as
    the t and F tails below do, should pass it: rebuilding a small 1 - x
    from x costs its relative accuracy (~1e-11 for the t test at n = 1e5).
    The prefactor x^a y^b / B(a, b) is taken in its Stirling-corrected form
    (Temme; DiDonato & Morris 1992, ACM TOMS 18:360), which keeps ~1e-15
    relative accuracy at a or b of order 1e5 where lgamma(a + b) -
    lgamma(a) - lgamma(b) + a log x + b log y cancels terms of size ~1e6.
    The tests hold the result to 1e-11 relative against scipy for shapes
    up to 300 and to 1e-12 against mpmath for the t and F tails at
    df ~ 1e5.  The continued fraction itself still loses digits when x is
    within ~1/a of 1 (t at df = 1e7, |t| = 1.96: 2e-10 relative).
    """
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if y is None:
        y = 1.0 - x
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    n = a + b
    ln_bt = (
        _log_ratio_term(a, x, n)
        + _log_ratio_term(b, y, n)
        + 0.5 * (math.log(a) + math.log(b) - math.log(n))
        - _HALF_LOG_2PI
        + _stirlerr(n)
        - _stirlerr(a)
        - _stirlerr(b)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return min(max(bt * _betacf(a, b, x) / a, 0.0), 1.0)
    return min(max(1.0 - bt * _betacf(b, a, y) / b, 0.0), 1.0)


def student_t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided p-value P(|T| > |t|) for Student's t with df degrees."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    t2 = t * t
    return betainc_reg(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def f_sf(f_stat: float, df1: int, df2: int) -> float:
    """Survival function P(F > f) of the F distribution."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f_stat <= 0:
        return 1.0
    u = df1 * f_stat
    return betainc_reg(0.5 * df2, 0.5 * df1, df2 / (df2 + u), u / (df2 + u))


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lambda).

    Alternating series with the first _KS_TERMS terms; adequate above a few
    dozen observations and documented as approximate for n < 35.
    """
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, _KS_TERMS + 1):
        e = math.exp(-2.0 * j * j * lam * lam)
        total += e if j % 2 else -e
        if e < 1e-300:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def anderson_darling_sf(a2: float) -> float:
    """P(A^2 > a2) in the fully-specified-null limit.

    Polynomial approximation to the Anderson-Darling limit distribution
    from Marsaglia & Marsaglia (2004); absolute error below 2e-6.  Used
    without the finite-n correction, so treat p as asymptotic.
    """
    z = a2
    if z <= 0:
        return 1.0
    if z < 2.0:
        cdf = (
            math.exp(-1.2337141 / z)
            / math.sqrt(z)
            * (2.00012 + (0.247105 - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * z) * z) * z) * z) * z)
        )
    else:
        cdf = math.exp(
            -math.exp(1.0776 - (2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * z) * z) * z) * z) * z)
        )
    return min(max(1.0 - cdf, 0.0), 1.0)


def poisson_pmf(y: int, lam: float) -> float:
    """Poisson probability mass, evaluated in log space for stability."""
    if y < 0 or y != int(y):
        raise ValueError("count must be a nonnegative integer")
    if lam <= 0:
        raise ValueError("mean must be positive")
    y = int(y)
    if y == 0:
        return math.exp(-lam)
    return math.exp(y * math.log(lam) - lam - math.lgamma(y + 1))


# ---------------------------------------------------------------------------
# result containers

VERDICTS = ("pass", "reject", "error", "info")


@dataclass
class TestResult:
    """Outcome of one check: the result record every report carries.

    With a p-value the verdict is ``"reject"`` exactly when
    ``p_value < alpha``.  Without one (an exact rule, an error, or a
    figure reported for information) the verdict is given explicitly.
    """

    name: str
    statistic: float | None
    p_value: float | None
    alpha: float | None = DEFAULT_ALPHA
    detail: dict = field(default_factory=dict)
    verdict: str | None = None

    def __post_init__(self):
        if self.p_value is None:
            if self.verdict not in VERDICTS:
                raise ValueError(f"verdict must be one of {VERDICTS}")
            return
        if self.verdict is not None:
            raise ValueError("a verdict follows from p_value and alpha")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")
        if self.alpha is None or not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        self.verdict = "reject" if self.p_value < self.alpha else "pass"

    def to_dict(self) -> dict:
        def number(x):
            return None if x is None else float(x)

        return {
            "name": self.name,
            "statistic": number(self.statistic),
            "p_value": number(self.p_value),
            "alpha": number(self.alpha),
            "verdict": self.verdict,
            "detail": dict(self.detail),
        }


def summary_verdict(records, passed: str = "pass") -> str:
    """The verdict of a set of records: "reject" if any record rejects,
    else "error" if any errs, else ``passed`` (the spectral test says "accept")."""
    verdicts = {r.verdict for r in records}
    if "reject" in verdicts:
        return "reject"
    return "error" if "error" in verdicts else passed


def _values(sample) -> np.ndarray:
    """Accept a Sample or a bare array-like of uniforms."""
    values = getattr(sample, "values", sample)
    return np.asarray(values, dtype=np.float64)


def _ascending(sample) -> np.ndarray:
    """The values of ``sample`` in ascending order: the array itself when it
    is already non-decreasing (a caller that sorted it once), else a sorted
    copy.  A NaN fails the check, so such a sample is sorted as before."""
    v = _values(sample)
    return v if np.all(v[:-1] <= v[1:]) else np.sort(v)


# ---------------------------------------------------------------------------
# tests

def chi_square_gof(
    counts, expected, alpha: float = DEFAULT_ALPHA, name: str = "chi2-gof"
) -> TestResult:
    """Pearson chi-square goodness of fit of binned counts against their
    expectations, with bins - 1 degrees of freedom."""
    counts = np.asarray(counts, dtype=np.int64)
    expected = np.asarray(expected, dtype=np.float64)
    if counts.ndim != 1 or expected.shape != counts.shape:
        raise ValueError("counts and expected must be matching 1-D arrays")
    if counts.size < 2:
        raise ValueError("need at least two bins")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if np.any(expected <= 0.0):
        raise ValueError("expected count 0 is not allowed")
    if np.any(expected < 1.0):
        raise ValueError("expected counts below 1 break the chi-square approximation")
    total_c = float(counts.sum())
    total_e = float(expected.sum())
    if total_c > 0 and abs(total_c - total_e) > 1e-6 * max(total_c, total_e):
        raise ValueError(
            f"count total {total_c} and expected total {total_e} disagree"
        )
    dev = counts - expected
    stat = float(np.sum(dev * dev / expected))
    df = counts.size - 1
    p = chi_square_sf(stat, df)
    detail = {
        "df": df,
        "n_bins": int(counts.size),
        "min_expected": float(expected.min()),
    }
    low = int(np.sum(expected < CHI2_MIN_EXPECTED))
    if low:
        detail["bins_below_5_expected"] = low
        warnings.warn(
            f"{name}: {low} bin(s) with expected count below {CHI2_MIN_EXPECTED:g}",
            stacklevel=2,
        )
    return TestResult(name, stat, p, alpha, detail)


def ks_test_uniform(sample, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Kolmogorov-Smirnov distance to the uniform CDF on [0, 1].

    D = max_i max(i/n - x_(i), x_(i) - (i-1)/n) over the sorted sample;
    the p-value uses the asymptotic series at sqrt(n) * D.
    """
    v = _ascending(sample)
    n = v.size
    if n < 1:
        raise ValueError("empty sample")
    plus, minus = [], []
    for start in range(0, n, STAT_BLOCK):
        block = v[start:start + STAT_BLOCK]
        # k / n for k = start .. start + block.size: each value's (i - 1)/n and i/n
        grid = np.arange(start, start + block.size + 1, dtype=np.float64) / n
        plus.append(np.max(grid[1:] - block))
        minus.append(np.max(block - grid[:-1]))
    d_plus = float(np.max(plus))
    d_minus = float(np.max(minus))
    d = max(d_plus, d_minus)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return TestResult(
        "ks", d, p, alpha,
        {"n": int(n), "d_plus": d_plus, "d_minus": d_minus},
    )


def _split_sum(x: np.ndarray) -> list[float]:
    """The exact sum of x's high parts and the rounded sum of its low
    parts: two floats for ``math.fsum``.

    One error-free extraction (Rump, Ogita & Oishi 2008, ExtractVector).
    With m values and 2^(e-1) <= max|x| < 2^e, sigma = 2^(e + bit_length(m))
    is at least 2^ceil(log2(m + 1)) max|x|.  q = (x + sigma) - sigma
    rounds x to a multiple of u sigma (u = 2^-53) with |q| <= 2^e, so
    every partial sum of the q is such a multiple below sigma: numpy sums
    them exactly in any order.  x - q is the rounding error of x + sigma,
    exact and at most u sigma <= 4 u m max|x|; numpy's pairwise sum of
    these errs by ~(log2(m) + 10) u sum|x - q|, about 1e-21 max|x| at
    m = STAT_BLOCK.
    """
    sigma = math.ldexp(1.0, math.frexp(max(x.max(), -x.min()))[1] + x.size.bit_length())
    high = x + sigma
    high -= sigma
    total = float(high.sum())
    high -= x  # the low parts, negated
    return [total, -float(high.sum())]


def _clamp_ends(a, first, lo, hi, end, bounds) -> None:
    """Write bounds[0] over the entries of ``a`` whose sorted positions lie
    in [0, lo) and bounds[1] over those in [hi, end); ``a`` views the
    ascending sample from sorted position ``first`` on."""
    a[:max(lo - first, 0)] = bounds[0]
    a[max(hi - first, 0):max(end - first, 0)] = bounds[1]


def anderson_darling_uniform(sample, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Anderson-Darling statistic against the uniform law on [0, 1).

    A^2 = -(n^2 + S) / n with S = sum_i (2i - 1)(log v_i + log(1 - v_(n+1-i))).
    Since |S| ~ n^2 while A^2 ~ 1, n^2 and the terms of S are summed
    exactly (to the last bit) before the single division, which leaves
    only the rounding of the logarithms: absolute error ~2e-14 at n = 1e5.
    The terms are formed STAT_BLOCK at a time; ``_split_sum`` gives each
    block's sum as an exact part and a part off by ~1e-21 of its largest
    term, and all go into one ``math.fsum`` with n^2.  At n = 1e6 that
    moves A^2 by below 5e-18; a sum rounded per block would move it by
    ~3e-10.  Values are clamped into
    [_AD_CLAMP, 1 - _AD_CLAMP] before taking logs so that exact endpoint
    observations produce a huge statistic instead of an infinity.  The
    p-value is the asymptotic fully-specified-null one.
    """
    v = _ascending(sample)
    n = v.size
    if n < 1:
        raise ValueError("empty sample")
    # Only the ends of the ascending sample can need the clamp: values below
    # it in [0, lo), values above 1 - _AD_CLAMP in [hi, end).  NaNs sort
    # last, from end on, and are neither clamped nor counted.
    lo, end = (int(i) for i in np.searchsorted(v, [_AD_CLAMP, np.nan]))
    hi = int(np.searchsorted(v, 1.0 - _AD_CLAMP, side="right"))
    parts = [float(n) * n]
    for start in range(0, n, STAT_BLOCK):
        stop = min(start + STAT_BLOCK, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = np.log(v[start:stop])
            # log(1 - v_(n+1-i)) for i = start + 1 .. stop, in i order, of
            # sorted positions n - 1 - start down to n - stop
            upper = np.negative(v[n - stop:n - start][::-1])
            np.log1p(upper, out=upper)
        _clamp_ends(body, start, lo, hi, end, _AD_LOGS)
        _clamp_ends(upper[::-1], n - stop, lo, hi, end, _AD_LOG1PS)
        body += upper
        body *= np.arange(2.0 * start + 1.0, 2.0 * stop, 2.0)  # 2i - 1
        parts += _split_sum(body)
    a2 = -math.fsum(parts) / n
    p = anderson_darling_sf(a2)
    detail = {"n": int(n)}
    clamped = lo + end - hi
    if clamped:
        detail["clamped_values"] = clamped
    return TestResult("anderson-darling", a2, p, alpha, detail)


def t_test_mean(
    sample, mu0: float = 0.5, alpha: float = DEFAULT_ALPHA
) -> TestResult:
    """Two-sided one-sample t test of the sample mean against mu0."""
    v = _values(sample)
    if v.size < 2:
        raise ValueError("need at least two observations")
    return t_record(v.size, float(v.mean()), float(v.std(ddof=1)), mu0, alpha)


def t_record(n: int, mean: float, s: float, mu0: float, alpha: float) -> TestResult:
    """The t-mean record of n values of mean ``mean`` and standard
    deviation ``s`` (ddof 1)."""
    if s == 0.0:
        raise ValueError("sample has zero variance; t statistic undefined")
    t = (mean - mu0) / (s / math.sqrt(n))
    p = student_t_sf_two_sided(t, n - 1)
    return TestResult(
        "t-mean", t, p, alpha,
        {"n": int(n), "mean": mean, "target": mu0, "stdev": s},
    )


def variance_test(
    sample, sigma0_sq: float = 1.0 / 12.0, alpha: float = DEFAULT_ALPHA
) -> TestResult:
    """Two-sided one-sample chi-square test of the variance against sigma0_sq.

    Statistic (n-1) s^2 / sigma0^2 against chi-square with n-1 degrees;
    p is twice the smaller tail.
    """
    v = _values(sample)
    if v.size < 2:
        raise ValueError("need at least two observations")
    if sigma0_sq <= 0:
        raise ValueError("reference variance must be positive")
    return variance_record(v.size, float(v.var(ddof=1)), sigma0_sq, alpha)


def variance_record(n: int, s2: float, sigma0_sq: float, alpha: float) -> TestResult:
    """The variance record of n values of sample variance ``s2`` (ddof 1)."""
    stat = (n - 1) * s2 / sigma0_sq
    upper = chi_square_sf(stat, n - 1)
    p = min(max(2.0 * min(upper, 1.0 - upper), 0.0), 1.0)
    return TestResult(
        "variance", stat, p, alpha,
        {"n": int(n), "variance": s2, "target": sigma0_sq},
    )


def levene_test(sample, groups: int = 10, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Levene homogeneity-of-spread test over contiguous equal blocks.

    The sample is cut into ``groups`` contiguous blocks of equal size
    (a remainder shorter than a block is discarded); spread is measured
    as |x - mean| with the group mean.  The statistic is referred to
    F(groups - 1, N - groups).
    """
    v = _values(sample)
    if groups < 2:
        raise ValueError("need at least two groups")
    size = v.size // groups
    if size < 2:
        raise ValueError("groups would have fewer than two observations")
    blocks = v[: groups * size].reshape(groups, size)
    z = blocks - blocks.mean(axis=1)[:, None]
    np.abs(z, out=z)
    zbar_i = z.mean(axis=1)
    zbar = float(z.mean())
    n_total = groups * size
    between = size * float(np.sum((zbar_i - zbar) ** 2))
    # the squared deviations from the group means, in z's own buffer
    np.subtract(z, zbar_i[:, None], out=z)
    within = float(np.sum(np.square(z, out=z)))
    if within == 0.0:
        stat = 0.0
        p = 1.0
    else:
        stat = (n_total - groups) / (groups - 1) * between / within
        p = f_sf(stat, groups - 1, n_total - groups)
    return TestResult(
        "levene", stat, p, alpha,
        {
            "groups": int(groups),
            "group_size": int(size),
            "discarded": int(v.size - n_total),
            "center": "mean",
        },
    )
