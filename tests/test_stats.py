import math
import random

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from rngaudit.stats import (
    TestResult as ResultRecord,
    _betacf,
    _gamma_q_contfrac,
    _log_gamma_prefactor,
    _sum_parts,
    anderson_darling_sf,
    anderson_darling_uniform,
    betainc_reg,
    chi_square_gof,
    chi_square_sf,
    f_sf,
    kolmogorov_sf,
    ks_test_uniform,
    levene_test,
    poisson_pmf,
    student_t_sf_two_sided,
    summary_verdict,
    t_test_mean,
    variance_test,
)
from rngaudit.generators import MT19937, make_generator

from oracles import anderson_darling_a2, nr_betacf, nr_gcf


def mt_sample(n, seed=5489):
    return MT19937(seed).sample(n)


# ---------------------------------------------------------------------------
# special functions vs scipy


class TestChiSquareSf:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 40, 100, 719])
    @pytest.mark.parametrize("x_over_df", [0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
    def test_against_scipy(self, df, x_over_df):
        x = df * x_over_df
        assert chi_square_sf(x, df) == pytest.approx(
            scipy.special.gammaincc(df / 2, x / 2), rel=1e-12, abs=1e-300
        )

    def test_edges(self):
        assert chi_square_sf(0.0, 5) == 1.0
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 5)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_deep_tail(self):
        # survival far out in the tail keeps relative accuracy
        assert chi_square_sf(300.0, 10) == pytest.approx(
            scipy.special.gammaincc(5, 150), rel=1e-10
        )

    @given(df=st.integers(1, 200), x=st.floats(0, 1000))
    @settings(max_examples=80)
    def test_is_a_probability_and_monotone(self, df, x):
        p = chi_square_sf(x, df)
        assert 0.0 <= p <= 1.0
        assert chi_square_sf(x + 1.0, df) <= p + 1e-12


class TestBetaFamily:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1, 3), (2.5, 7), (50, 50), (0.5, 300)])
    @pytest.mark.parametrize("x", [0.0, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0])
    def test_betainc_against_scipy(self, a, b, x):
        assert betainc_reg(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), rel=1e-11, abs=1e-14
        )

    @pytest.mark.parametrize("df", [1, 4, 30, 500])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.96, 4.0])
    def test_t_two_sided_against_scipy(self, df, t):
        assert student_t_sf_two_sided(t, df) == pytest.approx(
            2 * scipy.stats.t.sf(abs(t), df), rel=1e-10, abs=1e-14
        )

    @pytest.mark.parametrize("d1,d2", [(1, 1), (3, 7), (9, 40), (120, 120)])
    @pytest.mark.parametrize("f", [0.1, 1.0, 2.5, 10.0])
    def test_f_sf_against_scipy(self, d1, d2, f):
        assert f_sf(f, d1, d2) == pytest.approx(
            scipy.stats.f.sf(f, d1, d2), rel=1e-10, abs=1e-14
        )

    @pytest.mark.parametrize("df", [10**5, 10**6, 10**7])
    def test_large_df_tails_keep_small_one_minus_x(self, df):
        # x = df / (df + u) lies within ~1e-6 of 1, so the tails pass
        # y = u / (df + u) to betainc_reg; rebuilt as 1 - x it would carry
        # up to 1e-9 relative error here.  These statistics keep x above the
        # continued-fraction switch, where y decides the result (beyond it
        # the fraction in x loses digits; see betainc_reg).
        assert student_t_sf_two_sided(0.3, df) == pytest.approx(
            2 * scipy.stats.t.sf(0.3, df), rel=1e-13
        )
        assert f_sf(0.5, 9, df) == pytest.approx(
            scipy.stats.f.sf(0.5, 9, df), rel=1e-13
        )


class TestContinuedFractions:
    """The one Lentz driver gives both textbook fractions bit for bit, also
    where they stop at the iteration cap unconverged."""

    @staticmethod
    def _shape(rng):
        return math.exp(rng.uniform(math.log(0.5), math.log(5e6)))

    def test_gamma_equals_textbook_loop(self):
        rng = random.Random(2301)
        points = [(df / 2, df / 2 + 1.0) for df in (10**6, 10**7)]  # at the cap
        for _ in range(300):
            s = self._shape(rng)
            points.append((s, s + 1.0 + math.exp(rng.uniform(-7.0, math.log(50.0 * math.sqrt(s))))))
        for s, x in points:
            want = math.exp(_log_gamma_prefactor(s, x)) * nr_gcf(s, x)
            assert _gamma_q_contfrac(s, x) == want, (s, x)

    def test_beta_equals_textbook_loop(self):
        # on either side of betainc_reg's switch, as betainc_reg calls it
        rng = random.Random(2302)
        for i in range(300):
            a, b = self._shape(rng), self._shape(rng)
            switch = (a + 1.0) / (a + b + 2.0)
            gap = 10.0 ** rng.uniform(-8.0, 0.0)  # relative distance from the switch
            if i % 2:
                args = (a, b, switch * (1.0 - gap))
            else:
                args = (b, a, 1.0 - (switch + (1.0 - switch) * gap))
            assert _betacf(*args) == nr_betacf(*args), args


class TestTailDistributions:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.8284, 1.0, 1.5, 2.5])
    def test_kolmogorov_against_scipy(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(
            scipy.special.kolmogorov(lam), rel=1e-10, abs=1e-14
        )

    def test_kolmogorov_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80

    @pytest.mark.parametrize(
        "a2,p",
        # classical upper-tail critical points for the fully-specified case
        [(1.9329, 0.10), (2.4924, 0.05), (3.0775, 0.025), (3.8781, 0.01)],
    )
    def test_anderson_darling_critical_points(self, a2, p):
        assert anderson_darling_sf(a2) == pytest.approx(p, abs=2e-3)

    def test_anderson_darling_monotone(self):
        grid = np.linspace(0.05, 8.0, 200)
        vals = [anderson_darling_sf(x) for x in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 40])
    def test_poisson_pmf_against_scipy(self, lam, k):
        assert poisson_pmf(k, lam) == pytest.approx(
            scipy.stats.poisson.pmf(k, lam), rel=1e-12
        )


# ---------------------------------------------------------------------------
# result containers


class TestResultContainer:
    def test_verdict_threshold(self):
        assert ResultRecord("x", 1.0, 0.009999, alpha=0.01).verdict == "reject"
        assert ResultRecord("x", 1.0, 0.01, alpha=0.01).verdict == "pass"

    def test_p_value_validated(self):
        with pytest.raises(ValueError):
            ResultRecord("x", 1.0, 1.5)

    def test_explicit_verdict_without_p_value(self):
        for verdict in ("pass", "reject", "error", "info"):
            assert ResultRecord("x", None, None, None, {}, verdict).to_dict() == {
                "name": "x",
                "statistic": None,
                "p_value": None,
                "alpha": None,
                "verdict": verdict,
                "detail": {},
            }
        with pytest.raises(ValueError):
            ResultRecord("x", 1.0, None, None)  # neither a p-value nor a verdict
        with pytest.raises(ValueError):
            ResultRecord("x", 1.0, None, None, {}, "accept")
        with pytest.raises(ValueError):
            ResultRecord("x", 1.0, 0.5, 0.01, {}, "pass")  # follows from p and alpha

    def test_to_dict(self):
        d = ResultRecord("x", 2.0, 0.5, detail={"k": 1}).to_dict()
        assert d == {
            "name": "x",
            "statistic": 2.0,
            "p_value": 0.5,
            "alpha": 0.01,
            "verdict": "pass",
            "detail": {"k": 1},
        }

    @pytest.mark.parametrize("verdicts,want", [
        ([], "pass"),
        (["pass", "info"], "pass"),
        (["pass", "error"], "error"),
        (["error", "reject", "pass"], "reject"),
    ])
    def test_summary_verdict(self, verdicts, want):
        records = [ResultRecord("x", None, None, None, {}, v) for v in verdicts]
        assert summary_verdict(records) == want
        assert summary_verdict(records, "accept") == ("accept" if want == "pass" else want)


class TestBinnedCounts:
    """Input checks of chi_square_gof, which absorbed the BinnedCounts class."""

    def test_accepts_matching_totals(self):
        assert chi_square_gof(np.array([5, 5]), np.array([5.0, 5.0])).detail["df"] == 1

    def test_rejects_zero_expected(self):
        with pytest.raises(ValueError, match="not allowed"):
            chi_square_gof(np.array([5, 5]), np.array([10.0, 0.0]))

    def test_rejects_small_expected(self):
        with pytest.raises(ValueError, match="below 1"):
            chi_square_gof(np.array([5, 5]), np.array([9.5, 0.5]))

    def test_rejects_total_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            chi_square_gof(np.array([5, 5]), np.array([5.0, 6.0]))

    @pytest.mark.parametrize("counts,expected,match", [
        ([5, 5], [5.0, 5.0, 0.0], "matching 1-D"),
        ([[5, 5]], [[5.0, 5.0]], "matching 1-D"),
        ([10], [10.0], "two bins"),
        ([15, -5], [5.0, 5.0], "nonnegative"),
    ])
    def test_rejects_bad_bins(self, counts, expected, match):
        with pytest.raises(ValueError, match=match):
            chi_square_gof(np.array(counts), np.array(expected))


# ---------------------------------------------------------------------------
# tests on data vs scipy


class TestChiSquareGof:
    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(20, 80, size=50)
        expected = np.full(50, counts.sum() / 50)
        res = chi_square_gof(counts, expected)
        stat, p = scipy.stats.chisquare(counts, expected)
        assert res.statistic == pytest.approx(stat, rel=1e-12)
        assert res.p_value == pytest.approx(p, rel=1e-9)
        assert res.name == "chi2-gof"
        assert res.detail["df"] == 49

    def test_perfect_fit(self):
        res = chi_square_gof(np.full(10, 100), np.full(10, 100.0))
        assert res.statistic == 0.0
        assert res.p_value == 1.0


class TestKolmogorovSmirnov:
    def test_statistic_is_two_sided_sup(self):
        s = mt_sample(5000)
        res = ks_test_uniform(s)
        d_scipy = scipy.stats.kstest(s.values, "uniform").statistic
        assert res.statistic == pytest.approx(d_scipy, abs=1e-15)

    def test_p_matches_asymptotic_form(self):
        s = mt_sample(5000)
        res = ks_test_uniform(s)
        lam = math.sqrt(5000) * res.statistic
        assert res.p_value == pytest.approx(scipy.special.kolmogorov(lam), rel=1e-9)

    def test_detects_shifted_sample(self):
        vals = np.linspace(0.0, 0.5, 1000, endpoint=False)
        res = ks_test_uniform(vals)
        assert res.p_value < 1e-10
        assert res.verdict == "reject"


class TestAndersonDarling:
    def test_statistic_textbook_formula(self):
        # A^2 = -n - S/n with |S| ~ n^2 while A^2 ~ 1: checked against the
        # formula taken exactly in mpmath, so that a cancelling float sum
        # (off by ~3e-12 at n = 1e5) cannot pass.
        for s in (mt_sample(2000), make_generator("mt:seed=1").sample(100_000)):
            res = anderson_darling_uniform(s)
            assert res.statistic == pytest.approx(
                anderson_darling_a2(s.values), abs=1e-13
            ), s.size

    def test_exact_sum_is_correctly_rounded(self):
        assert math.fsum(_sum_parts(np.array([1e16, 1.0, 3.0, -1e16]))) == 4.0
        # n^2 and the terms of S, the sum the statistic divides by n
        v = np.sort(make_generator("mt:seed=1").sample(100_000).values)
        i = np.arange(1, v.size + 1)
        terms = (2.0 * i - 1.0) * (np.log(v) + np.log1p(-v[::-1]))
        x = np.concatenate(([float(v.size) ** 2], terms))
        assert math.fsum(_sum_parts(x)) == math.fsum(x.tolist())

    def test_endpoint_values_clamped(self):
        vals = np.array([0.0, 0.25, 0.5, 0.75, 0.999])
        res = anderson_darling_uniform(vals)  # log(0) would blow up unclamped
        assert math.isfinite(res.statistic)

    def test_detects_clustered_sample(self):
        vals = np.clip(np.random.default_rng(3).normal(0.5, 0.05, 1000), 0.001, 0.999)
        assert anderson_darling_uniform(vals).verdict == "reject"


class TestSortedInput:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True).map(abs)
                    | st.sampled_from([0.0, 0.25, 0.5]), min_size=1, max_size=60))
    def test_a_sorted_copy_gives_the_same_results(self, values):
        # both tests skip their sort on non-decreasing input
        v = np.array(values)
        for test in (ks_test_uniform, anderson_darling_uniform):
            assert repr(test(np.sort(v)).to_dict()) == repr(test(v).to_dict())


class TestMoments:
    def test_t_test_against_scipy(self):
        s = mt_sample(3000)
        res = t_test_mean(s)
        stat, p = scipy.stats.ttest_1samp(s.values, 0.5)
        assert res.statistic == pytest.approx(stat, rel=1e-12)
        assert res.p_value == pytest.approx(p, rel=1e-9)

    def test_t_test_constant_sample_raises(self):
        with pytest.raises(ValueError):
            t_test_mean(np.full(100, 0.5))

    def test_variance_statistic_and_two_sided_p(self):
        s = mt_sample(3000)
        res = variance_test(s)
        n = 3000
        stat = (n - 1) * np.var(s.values, ddof=1) / (1 / 12)
        assert res.statistic == pytest.approx(stat, rel=1e-12)
        q = scipy.stats.chi2.sf(stat, n - 1)
        assert res.p_value == pytest.approx(2 * min(q, 1 - q), rel=1e-8)

    def test_variance_detects_squashed_sample(self):
        vals = 0.5 + (np.random.default_rng(1).random(2000) - 0.5) * 0.2
        assert variance_test(vals).verdict == "reject"


class TestLevene:
    def test_against_scipy(self):
        s = mt_sample(5000)
        groups = np.split(s.values, 10)
        res = levene_test(s, groups=10)
        stat, p = scipy.stats.levene(*groups, center="mean")
        assert res.statistic == pytest.approx(stat, rel=1e-10)
        assert res.p_value == pytest.approx(p, rel=1e-8)

    def test_remainder_discarded(self):
        vals = mt_sample(1003).values
        res = levene_test(vals, groups=10)
        full = levene_test(vals[:1000], groups=10)
        assert res.statistic == full.statistic

    def test_degenerate_within_variance(self):
        vals = np.tile([0.2, 0.2, 0.2, 0.2, 0.2], 20)
        res = levene_test(vals, groups=5)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_detects_variance_drift(self):
        rng = np.random.default_rng(5)
        widths = np.repeat(np.linspace(0.02, 0.45, 10), 300)
        vals = np.clip(0.5 + (rng.random(3000) - 0.5) * widths, 0.0, 0.999)
        assert levene_test(vals, groups=10).verdict == "reject"

    def test_group_validation(self):
        with pytest.raises(ValueError):
            levene_test(mt_sample(100), groups=1)
