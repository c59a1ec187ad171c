"""Tests for the statistical test battery."""

from __future__ import annotations

import functools
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngaudit import battery, stats
from rngaudit.battery import (
    BatteryConfig,
    BatteryReport,
    TEST_REGISTRY,
    birthday_spacings_test,
    global_uniformity,
    permutation_test,
    run_battery,
    serial_test,
)
from rngaudit.generators import Sample, make_generator
from rngaudit.stats import (
    STAT_BLOCK,
    anderson_darling_uniform,
    chi_square_gof,
    ks_test_uniform,
    levene_test,
    t_test_mean,
    variance_test,
)

from oracles import (
    all_rank_vectors,
    anderson_darling_terms,
    bin_counts,
    duplicate_spacings,
    ks_distances,
    levene_statistic,
    perm_rank,
    permutation_counts,
    serial_counts,
)

REL = 1e-12


@pytest.fixture(scope="module")
def mt_sample():
    return make_generator("mt:seed=1").sample(100_000)


@pytest.fixture(scope="module")
def mt_small():
    return make_generator("mt:seed=7").sample(30_000)


# ---------------------------------------------------------------------------
# configuration


class TestBatteryConfig:
    def test_defaults(self):
        c = BatteryConfig()
        assert c.tests == ("uniformity", "permutation", "serial", "birthday")
        assert c.alpha == 0.01
        assert c.permutation_k == 3
        assert c.serial_d == 8
        assert c.serial_l == 2
        assert c.birthday_n == 512
        assert c.birthday_k == 2**24
        assert c.levene_groups == 10
        assert c.gof_bins == 100
        assert c.bonferroni is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"permutation_k": 1},
            {"permutation_k": 9},
            {"serial_d": 1},
            {"serial_l": 0},
            {"birthday_n": 1},
            {"birthday_k": 1},
            {"birthday_k": 2**62 + 1},
            {"levene_groups": 1},
            {"gof_bins": 1},
            {"tests": ()},
            {"alpha": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BatteryConfig(**kwargs)

    def test_asdict_round_trips_through_json(self):
        c = BatteryConfig(alpha=0.05, tests=("serial",), bonferroni=True)
        d = json.loads(json.dumps(asdict(c)))
        assert d["alpha"] == 0.05
        assert d["tests"] == ["serial"]
        assert d["bonferroni"] is True
        assert set(d) == {
            "tests", "alpha", "permutation_k", "serial_d", "serial_l",
            "birthday_n", "birthday_k", "levene_groups",
            "gof_bins", "bonferroni",
        }


# ---------------------------------------------------------------------------
# rank patterns and their indexing, as permutation_test computes them


@functools.cache
def lexicographic_rank(pattern: tuple[int, ...]) -> int:
    """Position of a rank pattern among all k! patterns in lexicographic order."""
    return all_rank_vectors(len(pattern)).index(pattern)


def ordering_counts(values, k: int) -> np.ndarray:
    """The per-ordering counts that permutation_test tests, index by index."""
    with mock.patch.object(battery, "chi_square_gof", wraps=battery.chi_square_gof) as gof:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tied tuples warn
            permutation_test(values, k=k)
    return gof.call_args.args[0]


def ordering_index(values) -> int:
    """The index permutation_test gives to one tuple: it is repeated
    until every ordering expects 5 tuples, so one bin holds them all."""
    k = len(values)
    counts = ordering_counts(np.tile(values, 5 * math.factorial(k)), k)
    (index,) = np.flatnonzero(counts)
    return int(index)


class TestRankPattern:
    """A tuple's rank pattern (1 = smallest, ties to the earlier
    position) decides its bin: the lexicographic rank of the pattern."""

    def test_worked_example(self):
        # (0.8, 0.1, 0.2, 0.05) ranks as (4, 2, 3, 1)
        assert ordering_index((0.8, 0.1, 0.2, 0.05)) == lexicographic_rank((4, 2, 3, 1))

    def test_sorted_input_is_identity(self):
        assert ordering_index((0.1, 0.2, 0.3)) == 0

    def test_ties_rank_earlier_position_lower(self):
        assert ordering_index((0.5, 0.5)) == 0
        assert ordering_index((0.5, 0.5, 0.1)) == lexicographic_rank((2, 3, 1))

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.25, 0.5))),
                    min_size=2, max_size=8))
    def test_matches_sort_based_oracle(self, values):
        expected = lexicographic_rank(perm_rank(values))
        assert ordering_index(values) == expected


class TestPatternIndex:
    """The ordering index is a bijection onto 0 .. k! - 1."""

    def test_identity_and_reversal_are_extremes(self):
        for k in range(2, 9):
            assert ordering_index(np.arange(1, k + 1) / (k + 1)) == 0
            assert ordering_index(np.arange(k, 0, -1) / (k + 1)) == math.factorial(k) - 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bijection_onto_factorial_range(self, k):
        # each ordering five times, as rank vectors scaled into (0, 1)
        tuples = np.array(all_rank_vectors(k)) / (k + 1)
        counts = ordering_counts(np.tile(tuples, (5, 1)).ravel(), k)
        assert counts.tolist() == [5] * math.factorial(k)


# ---------------------------------------------------------------------------
# permutation test


class TestPermutationTest:
    def test_mersenne_twister_passes(self, mt_small):
        r = permutation_test(mt_small, k=3)
        assert r.name == "permutation"
        assert r.statistic == pytest.approx(1.8607999999999998, rel=REL)
        assert r.p_value == pytest.approx(0.8680512141212872, rel=REL)
        assert r.verdict == "pass"
        assert r.detail["k"] == 3
        assert r.detail["mode"] == "disjoint"
        assert r.detail["n_tuples"] == 10_000
        assert r.detail["tied_tuples"] == 0
        assert "tie_warning" not in r.detail

    def test_statistic_matches_pattern_count_oracle(self, mt_small):
        k = 4
        v = np.asarray(mt_small.values)[:4000]
        t = v.size // k
        counts: dict[tuple, int] = {}
        for i in range(t):
            pat = perm_rank(v[i * k : (i + 1) * k])
            counts[pat] = counts.get(pat, 0) + 1
        expected = t / math.factorial(k)
        chi2 = sum(
            (counts.get(p, 0) - expected) ** 2 / expected
            for p in itertools.permutations(range(1, k + 1))
        )
        r = permutation_test(v, k=k)
        assert r.statistic == pytest.approx(chi2, rel=REL)

    @pytest.mark.parametrize("k", [1, 9])
    def test_rejects_tuple_length_outside_range(self, k, mt_small):
        with pytest.raises(ValueError, match=r"\[2, 8\]"):
            permutation_test(mt_small, k=k)

    def test_rejects_when_expected_count_too_small(self):
        with pytest.raises(ValueError, match="< 5"):
            permutation_test(np.linspace(0.0, 0.99, 60), k=4)

    def test_ties_are_counted_and_flagged(self):
        v = np.tile([0.1, 0.1, 0.2], 200)
        with pytest.warns(UserWarning, match="ties"):
            r = permutation_test(v, k=3)
        assert r.detail["tied_tuples"] == 200
        assert r.detail["tie_warning"] is True

    def test_tie_resolution_matches_rank_rule(self):
        # (0.5, 0.5, 0.1) ranks as (2, 3, 1); repeated tuples must all land
        # in that single pattern's bin, giving the maximal statistic.
        v = np.tile([0.5, 0.5, 0.1], 100)
        with pytest.warns(UserWarning):
            r = permutation_test(v, k=3)
        expected = 100 / 6
        worst = (100 - expected) ** 2 / expected + 5 * expected
        assert r.statistic == pytest.approx(worst, rel=REL)


# ---------------------------------------------------------------------------
# serial test


class TestSerialTest:
    def test_mersenne_twister_passes(self, mt_small):
        r = serial_test(mt_small, d=8, l=2)
        assert r.name == "serial"
        assert r.statistic == pytest.approx(57.87733333333334, rel=REL)
        assert r.p_value == pytest.approx(0.6589162607229112, rel=REL)
        assert r.verdict == "pass"
        assert r.detail["cells"] == 64
        assert r.detail["n_tuples"] == 15_000

    def test_statistic_matches_digit_count_oracle(self, mt_small):
        d, l = 4, 2
        v = np.asarray(mt_small.values)[:2000]
        t = v.size // l
        cells: dict[int, int] = {}
        for i in range(t):
            idx = 0
            for x in v[i * l : (i + 1) * l]:
                idx = idx * d + min(int(x * d), d - 1)
            cells[idx] = cells.get(idx, 0) + 1
        lam = t / d**l
        chi2 = sum((cells.get(c, 0) - lam) ** 2 / lam for c in range(d**l))
        r = serial_test(v, d=d, l=l)
        assert r.statistic == pytest.approx(chi2, rel=REL)

    def test_error_names_largest_admissible_base(self):
        # 100 values -> 50 pairs; 50/5 = 10 cells at most, so d = 3.
        with pytest.raises(ValueError, match="d=3"):
            serial_test(np.linspace(0.0, 0.99, 100), d=8, l=2)

    def test_constant_sample_rejects(self):
        r = serial_test(np.full(1000, 0.3), d=2, l=2)
        assert r.verdict == "reject"
        assert r.statistic == pytest.approx(1500.0, rel=REL)
        assert r.p_value == 0.0

    def test_values_near_one_clip_into_top_digit(self):
        v = np.full(1000, np.nextafter(1.0, 0.0))
        r = serial_test(v, d=2, l=2)
        # all tuples land in the single top cell (binary digits 1,1)
        assert r.verdict == "reject"
        assert r.detail["cells"] == 4

    @pytest.mark.parametrize("kwargs", [{"d": 1}, {"l": 0}])
    def test_rejects_bad_parameters(self, kwargs, mt_small):
        with pytest.raises(ValueError):
            serial_test(mt_small, **kwargs)


# ---------------------------------------------------------------------------
# birthday spacings


class TestBirthdaySpacings:
    def test_mersenne_twister_passes(self):
        s = make_generator("mt:seed=11").sample(512 * 40)
        r = birthday_spacings_test(s, n=512, k=2**24)
        assert r.name == "birthday-spacings"
        assert r.statistic == pytest.approx(0.7193257450264533, rel=REL)
        assert r.p_value == pytest.approx(0.9489244521869986, rel=REL)
        assert r.verdict == "pass"
        assert r.detail["poisson_mean"] == 2.0
        assert r.detail["n_blocks"] == 40
        assert r.detail["mean_duplicate_spacings"] == pytest.approx(1.925)
        assert r.detail["mean_cell_collisions"] == pytest.approx(0.025)

    def test_duplicate_spacing_count_on_designed_blocks(self):
        # Block A: consecutive cells, all spacings equal -> 6 duplicates.
        # Block B: cells whose pairwise gaps differ -> 0 duplicates.
        k = 64
        a = [0, 1, 2, 3, 4, 5, 6, 7]
        b = [0, 1, 3, 7, 12, 20, 30, 43]
        to_vals = lambda cells: [(c + 0.5) / k for c in cells]
        v = np.array((to_vals(a) + to_vals(b)) * 10)
        r = birthday_spacings_test(v, n=8, k=k)
        assert r.detail["mean_duplicate_spacings"] == pytest.approx(3.0)
        assert r.detail["mean_cell_collisions"] == 0.0
        assert r.detail["poisson_mean"] == pytest.approx(2.0)

    def test_repeated_cells_counted_as_collisions(self):
        k = 64
        dup = [5, 5, 9, 17, 30, 44, 50, 61]  # one duplicated cell
        run = [0, 1, 2, 3, 4, 5, 6, 7]
        to_vals = lambda cells: [(c + 0.5) / k for c in cells]
        v = np.array((to_vals(dup) + to_vals(run)) * 10)
        r = birthday_spacings_test(v, n=8, k=k)
        assert r.detail["mean_cell_collisions"] == pytest.approx(0.5)

    def test_rejects_too_few_blocks(self):
        with pytest.raises(ValueError, match="at least 20"):
            birthday_spacings_test(np.linspace(0, 0.99, 512 * 19), n=512, k=2**24)

    def test_extreme_mean_warns(self):
        v = make_generator("mt:seed=3").generate(32 * 50)
        with pytest.warns(UserWarning, match="Poisson mean"):
            r = birthday_spacings_test(v, n=32, k=20480)
        assert r.detail["poisson_mean"] == pytest.approx(0.4)
        assert "poisson_mean_warning" in r.detail

    def test_rejects_degenerate_histogram(self):
        # mean so small every block shows zero duplicates: one pooled bin only
        v = make_generator("mt:seed=3").generate(8 * 20)
        with pytest.raises(ValueError, match="too few blocks"):
            birthday_spacings_test(v, n=8, k=2**24)


# ---------------------------------------------------------------------------
# global uniformity composite


def assert_same_records(v, alpha=0.01, groups=10, bins=100):
    """global_uniformity, which sorts v once for ks and anderson-darling,
    gives each test's own record on the unsorted v, bit for bit."""
    counts = np.bincount(np.minimum((v * bins).astype(np.int64), bins - 1), minlength=bins)
    want = [t_test_mean(v, 0.5, alpha), variance_test(v, 1.0 / 12.0, alpha),
            levene_test(v, groups, alpha), ks_test_uniform(v, alpha),
            chi_square_gof(counts, np.full(bins, v.size / bins), alpha, name="chi2-uniform"),
            anderson_darling_uniform(v, alpha)]
    want[0].detail["empirical_mean"] = float(v.mean())
    want[1].detail["empirical_variance"] = float(v.var(ddof=1))
    got = global_uniformity(v, alpha, groups, bins)
    # repr tells -0.0 from 0.0 and prints every bit of a float
    assert [repr(r.to_dict()) for r in got] == [repr(r.to_dict()) for r in want]


class TestGlobalUniformity:
    def test_component_order_and_names(self, mt_sample):
        results = global_uniformity(mt_sample)
        assert [r.name for r in results] == [
            "t-mean", "variance", "levene", "ks", "chi2-uniform",
            "anderson-darling",
        ]

    def test_mersenne_twister_passes_all_components(self, mt_sample):
        for r in global_uniformity(mt_sample):
            assert r.verdict == "pass", r.name

    def test_reports_empirical_moments(self, mt_sample):
        v = np.asarray(mt_sample.values)
        results = global_uniformity(mt_sample)
        assert results[0].detail["empirical_mean"] == pytest.approx(v.mean(), rel=REL)
        assert results[1].detail["empirical_variance"] == pytest.approx(
            v.var(ddof=1), rel=REL
        )

    def test_biased_sample_rejected(self):
        u = make_generator("mt:seed=3").generate(10_000) ** 2
        verdicts = {r.name: r.verdict for r in global_uniformity(u)}
        assert verdicts["t-mean"] == "reject"
        assert verdicts["ks"] == "reject"
        assert verdicts["chi2-uniform"] == "reject"
        assert verdicts["anderson-darling"] == "reject"

    def test_rejects_short_samples(self):
        with pytest.raises(ValueError, match="100"):
            global_uniformity(np.linspace(0, 0.99, 99))

    @pytest.mark.parametrize("descriptor", ["mt:seed=11", "lcg:m=2147483647,a=16807,c=0,seed=11",
                                            "wh:seed1=11,seed2=12,seed3=13"])
    def test_records_equal_each_test_on_the_unsorted_sample(self, descriptor):
        assert_same_records(make_generator(descriptor).generate(100_000))

    def test_records_with_ties_and_zeros(self):
        v = np.floor(make_generator("mt:seed=12").generate(100_000) * 1000) / 1000
        v[::97] = 0.0
        assert_same_records(v)

    def test_more_bins_than_values_fails_before_allocating(self, mt_small):
        v = np.asarray(mt_small.values)[:20_000]
        config = BatteryConfig(tests=("uniformity",), gof_bins=5_000_000)
        tracemalloc.start()
        try:
            rep = run_battery(v, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.to_dict() for r in rep.results] == [{
            "name": "uniformity", "statistic": None, "p_value": None, "alpha": None,
            "verdict": "error",
            "detail": {"error": "expected counts below 1 break the chi-square approximation"},
        }]
        # two 5e6-long arrays would take 80 MB
        assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# the kernels walk the sample STAT_BLOCK values at a time

# Each size leaves another remainder after the last full block, and after
# the last whole 3-tuple and 2-tuple.
BOUNDARY_SIZES = [STAT_BLOCK - 1, STAT_BLOCK, STAT_BLOCK + 1, 3 * STAT_BLOCK + 7]
# The defaults, and a recipe whose birthday rows (65 of 500 values to a
# block) leave one row past the last full block at 3 * STAT_BLOCK + 7.
BOUNDARY_CONFIGS = [
    BatteryConfig(),
    BatteryConfig(permutation_k=4, serial_d=5, serial_l=3, birthday_n=500,
                  birthday_k=2**22, levene_groups=7, gof_bins=37),
]


@pytest.fixture(scope="module", params=BOUNDARY_SIZES)
def boundary_values(request):
    """MT values with three the Anderson-Darling clip moves, and exact ties
    in a tuple of the first block, of the second and of the last."""
    v = make_generator(f"mt:seed={request.param}").generate(request.param)
    v[[3, 1000, -7]] = [0.0, 1e-13, 1.0 - 1e-13]
    for start in (30, STAT_BLOCK - 2, v.size - 20):
        v[start:start + 3] = v[start]
    return v


@pytest.mark.filterwarnings("ignore:permutation:UserWarning")
class TestStatBlocks:
    def test_uniformity_statistics_match_the_unblocked_formulas(self, boundary_values):
        v = boundary_values
        n = v.size
        ordered = np.sort(v)
        got = {r.name: r for r in global_uniformity(v, levene_groups=7, gof_bins=37)}
        d_plus, d_minus = ks_distances(ordered)
        assert got["ks"].detail == {"n": n, "d_plus": d_plus, "d_minus": d_minus}
        terms, clamped = anderson_darling_terms(ordered)
        assert clamped == 3
        assert got["anderson-darling"].detail == {"n": n, "clamped_values": clamped}
        # the correctly rounded sum of n^2 and the terms
        assert got["anderson-darling"].statistic == -math.fsum([float(n) * n, *terms.tolist()]) / n
        assert got["levene"].statistic == levene_statistic(v, 7)
        want = chi_square_gof(bin_counts(v, 37), np.full(37, n / 37), name="chi2-uniform")
        assert got["chi2-uniform"].to_dict() == want.to_dict()

    @pytest.mark.parametrize("k", [3, 4])
    def test_permutation_counts_match_the_unblocked_formula(self, boundary_values, k):
        with mock.patch.object(battery, "chi_square_gof", wraps=chi_square_gof) as gof:
            result = permutation_test(boundary_values, k)
        counts, ties = permutation_counts(boundary_values, k)
        assert gof.call_args.args[0].tolist() == counts.tolist()
        assert result.detail["tied_tuples"] == ties > 0

    @pytest.mark.parametrize("d, l", [(8, 2), (5, 3)])
    def test_serial_counts_match_the_unblocked_formula(self, boundary_values, d, l):
        with mock.patch.object(battery, "chi_square_gof", wraps=chi_square_gof) as gof:
            serial_test(boundary_values, d, l)
        assert gof.call_args.args[0].tolist() == serial_counts(boundary_values, d, l).tolist()

    @pytest.mark.parametrize("n, k", [(512, 2**24), (500, 2**22)])
    def test_duplicate_spacings_match_the_unblocked_formula(self, boundary_values, n, k):
        rows = boundary_values.size // n
        got = battery._duplicate_spacings(boundary_values[:rows * n].reshape(rows, n), k)
        want = duplicate_spacings(boundary_values, n, k)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_records_equal_those_of_one_block(self, boundary_values, monkeypatch):
        def records():
            return [repr(r.to_dict()) for config in BOUNDARY_CONFIGS
                    for r in run_battery(boundary_values, config).results]

        blocked = records()
        monkeypatch.setattr(stats, "STAT_BLOCK", boundary_values.size)
        monkeypatch.setattr(battery, "STAT_BLOCK", boundary_values.size)
        assert blocked == records()

    def test_no_temporary_grows_with_the_sample(self):
        v = make_generator("mt:seed=2").generate(2**20)
        peaks = {}
        for name, run in TEST_REGISTRY.items():
            tracemalloc.start()
            try:
                run(v, BatteryConfig(), 0.01)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for name in ("permutation", "serial", "birthday"):
            assert peaks[name] < 2 * 2**20, name
        # the sorted copy and Levene's |x - group mean| are sample-sized, and
        # the sort comes after Levene, so they are never held together
        assert peaks["uniformity"] < v.nbytes + 2 * 2**20


# ---------------------------------------------------------------------------
# the battery driver


class TestRunBattery:
    def test_default_run_on_mersenne_twister(self, mt_sample):
        rep = run_battery(mt_sample)
        assert [r.name for r in rep.results] == [
            "t-mean", "variance", "levene", "ks", "chi2-uniform",
            "anderson-darling", "permutation", "serial", "birthday-spacings",
        ]
        assert all(r.verdict != "error" for r in rep.results)
        assert rep.n_rejections == 0
        # Not captured output: each value is the mpmath (or scipy) p-value
        # of the statistic computed on this float sample, so that an
        # ill-conditioned evaluation cannot freeze its own rounding here.
        frozen_p = [
            0.36697347024220143, 0.88169162278376235, 0.88285898439392828,
            0.6317750181707, 0.9597565643575696, 0.5726852726364998,
            0.8463359995527276, 0.3637204942861609, 0.8703104128858217,
        ]
        for r, p in zip(rep.results, frozen_p):
            assert r.p_value == pytest.approx(p, rel=REL), r.name

    def test_tiny_generator_rejected_overwhelmingly(self):
        s = make_generator("lcg:m=10,a=7,c=7,seed=7").sample(100_000)
        rep = run_battery(s)
        assert rep.n_rejections >= 6
        by_name = {r.name: r for r in rep.results}
        assert by_name["chi2-uniform"].p_value < 1e-10
        assert by_name["serial"].p_value < 1e-10

    def test_bonferroni_divides_alpha_by_planned_results(self, mt_sample):
        rep = run_battery(mt_sample, BatteryConfig(bonferroni=True))
        # six uniformity components plus three single-result families
        for r in rep.results:
            assert r.alpha == pytest.approx(0.01 / 9, rel=REL)

    def test_bonferroni_single_family(self, mt_small):
        rep = run_battery(mt_small, BatteryConfig(tests=("serial",), bonferroni=True))
        assert rep.results[0].alpha == pytest.approx(0.01, rel=REL)

    def test_family_error_is_captured_without_aborting(self):
        s = make_generator("mt:seed=5").sample(5_000)  # 9 blocks of 512
        rep = run_battery(s)
        assert len(rep.results) == 9
        assert [r.verdict == "error" for r in rep.results] == [False] * 8 + [True]
        err = rep.results[-1]
        assert err.name == "birthday"
        assert "at least 20" in err.detail["error"]

    def test_unknown_family_becomes_error_entry(self, mt_small):
        rep = run_battery(mt_small, BatteryConfig(tests=("bogus", "serial")))
        assert [r.name for r in rep.results] == ["serial", "bogus"]
        assert rep.results[1].verdict == "error"
        assert rep.results[1].detail == {"error": "unknown test 'bogus'"}

    def test_plain_array_input_runs(self):
        rep = run_battery(np.linspace(0.0, 0.999, 50_000))
        assert len(rep.results) == 9
        assert all(r.verdict != "error" for r in rep.results)

    def test_registry_covers_default_families(self):
        assert set(TEST_REGISTRY) == {"uniformity", "permutation", "serial", "birthday"}

    def test_report_to_dict_serializes(self, mt_small):
        cfg = BatteryConfig(tests=("serial", "bogus"))
        rep = run_battery(mt_small, cfg)
        d = json.loads(json.dumps([r.to_dict() for r in rep.results]))
        assert [r["verdict"] for r in d] == [rep.results[0].verdict, "error"]
        assert d[-1] == {
            "name": "bogus", "statistic": None, "p_value": None, "alpha": None,
            "verdict": "error", "detail": {"error": "unknown test 'bogus'"},
        }

    def test_report_counts_rejections(self):
        rep = BatteryReport(results=run_battery(np.linspace(0.0, 0.999, 50_000)).results)
        assert rep.n_rejections == sum(1 for r in rep.results if r.verdict == "reject")
