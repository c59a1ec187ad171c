"""Tests for the seed-sensitivity Monte Carlo harness."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rngaudit.generators import _JUMP, make_generator
from rngaudit.seedlab import (
    GaussianStream,
    SweepReport,
    ToyModelConfig,
    _CHUNK_NORMALS,
    _delta_pct,
    convergence_report,
    mc_estimate,
    seed_sweep,
    uniform_to_gaussian,
)

from oracles import (
    ScalarGaussianStream,
    closed_form_put,
    delta_table_loop,
    scalar_payoffs,
    sweep_pairs_loop,
)

REL = 1e-12

SMALL = ToyModelConfig(paths=200, horizon_steps=20)

SHORT_LCG = "lcg:m=262144,a=4649,c=819"
# seed 7 walks 6, 9, 0, 7, ...: the first pair after (0.6, 0.9) skips a zero
ZERO_SKIP_LCG = "lcg:m=10,a=7,c=7"
# an odd cycle through 0, so every other lap skips a zero in a u1 slot
ODD_CYCLE_LCG = "lcg:m=9,a=4,c=1"


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _load_bench_reference():
    """bench/reference.py, the benchmark's own Box-Muller loop and streams,
    which import nothing from rngaudit."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference.py")
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Box-Muller transform


class TestUniformToGaussian:
    def test_closed_form_point(self):
        # -2 ln(e**-2) = 4, angle 0: radius 2 entirely on the cosine leg
        z1, z2 = uniform_to_gaussian(math.exp(-2.0), 0.0)
        assert z1 == pytest.approx(2.0, rel=REL)
        assert z2 == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn_moves_radius_to_second_leg(self):
        z1, z2 = uniform_to_gaussian(math.exp(-2.0), 0.25)
        assert z1 == pytest.approx(0.0, abs=1e-14)
        assert z2 == pytest.approx(2.0, rel=REL)

    def test_median_radius(self):
        z1, _ = uniform_to_gaussian(0.5, 0.0)
        assert z1 == pytest.approx(math.sqrt(2.0 * math.log(2.0)), rel=REL)

    @pytest.mark.parametrize("u1,u2", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                       (0.5, 1.0), (0.5, -0.01)])
    def test_rejects_out_of_range_inputs(self, u1, u2):
        with pytest.raises(ValueError):
            uniform_to_gaussian(u1, u2)

    @given(
        u1=st.floats(1e-300, 1.0, exclude_max=True),
        u2=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_pair_radius_identity(self, u1, u2):
        z1, z2 = uniform_to_gaussian(u1, u2)
        assert z1 * z1 + z2 * z2 == pytest.approx(-2.0 * math.log(u1), rel=1e-9)


class TestGaussianStream:
    def test_zero_uniform_skipped_and_counted(self):
        # the 10-state generator emits 0.6, 0.9, 0.0, 0.7, 0.6, ...; the
        # zero lands in the u1 slot of the second pair and must be skipped
        s = GaussianStream(make_generator("lcg:m=10,a=7,c=7,seed=7"))
        z = [s.next_gaussian() for _ in range(4)]
        assert z[:2] == pytest.approx(uniform_to_gaussian(0.6, 0.9), rel=REL)
        assert z[2:] == pytest.approx(uniform_to_gaussian(0.7, 0.6), rel=REL)
        assert s.zero_skips == 1

    def test_skip_counter_increments_at_the_skip(self):
        s = GaussianStream(make_generator("lcg:m=10,a=7,c=7,seed=7"))
        s.next_gaussian()
        s.next_gaussian()
        assert s.zero_skips == 0
        s.next_gaussian()
        assert s.zero_skips == 1

    def test_pair_is_buffered(self):
        s = GaussianStream(make_generator("mt:seed=3"))
        reference = GaussianStream(make_generator("mt:seed=3"))
        a = [s.next_gaussian() for _ in range(6)]
        b = [reference.next_gaussian() for _ in range(6)]
        assert a == b

    def test_stream_matches_pairwise_transform(self):
        g = make_generator("mt:seed=8")
        u = g.generate(10)
        s = GaussianStream(make_generator("mt:seed=8"))
        expected = []
        for i in range(0, 10, 2):
            expected.extend(uniform_to_gaussian(u[i], u[i + 1]))
        got = [s.next_gaussian() for _ in range(10)]
        assert got == pytest.approx(expected, rel=REL)

    # a draw sequence: "g" is one next_gaussian(), an int k is normals(k);
    # sizes are odd and even, and cross the 4096-value chunk edge
    CALLS = st.lists(
        st.one_of(st.just("g"), st.integers(0, 9),
                  st.sampled_from((_JUMP - 1, _JUMP, _JUMP + 1, 2 * _JUMP + 3))),
        min_size=1, max_size=5)

    @given(descriptor=st.sampled_from(("mt:", SHORT_LCG, "wh:", ZERO_SKIP_LCG, ODD_CYCLE_LCG)),
           seed=st.integers(1, 8), calls=CALLS)
    @example(descriptor=ZERO_SKIP_LCG, seed=7, calls=["g", _JUMP + 1, 3, "g"])
    @example(descriptor=ODD_CYCLE_LCG, seed=1, calls=[_JUMP - 1, "g", 2 * _JUMP + 3])
    @example(descriptor="mt:", seed=5, calls=[7, _JUMP, "g", _JUMP + 1])
    @settings(max_examples=40, deadline=None)
    def test_any_split_matches_the_scalar_loop(self, descriptor, seed, calls):
        stream = GaussianStream(make_generator(descriptor, seed=seed))
        got = []
        for call in calls:
            if call == "g":
                got.append(stream.next_gaussian())
            else:
                got.extend(stream.normals(call).tolist())
        oracle = ScalarGaussianStream(make_generator(descriptor, seed=seed))
        want = [oracle.next_gaussian() for _ in got]
        assert _bits(got) == _bits(want)
        assert stream.zero_skips == oracle.zero_skips
        # the same uniforms consumed: the next one drawn agrees too
        assert _bits([stream.generator.next_uniform()]) == _bits(
            [oracle.generator.next_uniform()])

    def test_every_zero_in_a_u1_slot_costs_one_more_uniform(self):
        # 5, 3, 4, 8, 6, 7, 2, 0, 1 repeats.  The zeros at draws 8, 17, 26
        # and 35 fall in a u2 slot, then a u1 slot; each skip shifts the
        # pairing by one, so the later zeros keep landing in u1 slots
        s = GaussianStream(make_generator(ODD_CYCLE_LCG, seed=1))
        s.normals(36)
        assert s.zero_skips == 3
        # 36 normals from 18 pairs: 36 uniforms kept, plus the 3 skipped
        assert s.generator.next_uniform() == 8 / 9  # draw 40


# ---------------------------------------------------------------------------
# model configuration


class TestToyModelConfig:
    def test_defaults(self):
        c = ToyModelConfig()
        assert c.paths == 1000
        assert c.horizon_steps == 80
        assert c.drift == 0.0002
        assert c.volatility == 0.016
        assert c.discount_rate == 0.0002
        assert c.strike_ratio == 0.93

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"paths": 0},
            {"horizon_steps": 0},
            {"volatility": -0.1},
            {"strike_ratio": -0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToyModelConfig(**kwargs)

    def test_to_dict_round_trips_through_json(self):
        d = json.loads(json.dumps(ToyModelConfig().to_dict()))
        assert d == {
            "paths": 1000,
            "horizon_steps": 80,
            "drift": 0.0002,
            "volatility": 0.016,
            "discount_rate": 0.0002,
            "strike_ratio": 0.93,
        }


# ---------------------------------------------------------------------------
# the estimator


class TestMcEstimate:
    def test_deterministic(self):
        a = mc_estimate("mt:", 1, SMALL)
        b = mc_estimate("mt:", 1, SMALL)
        assert a == b

    def test_frozen_value(self):
        est, se = mc_estimate("mt:", 1, SMALL)
        assert est == pytest.approx(0.004881332127538505, rel=REL)
        assert se == pytest.approx(0.0010380395289193494, rel=REL)

    def test_seed_in_descriptor_equals_seed_argument(self):
        assert mc_estimate("mt:seed=1", 1, SMALL) == mc_estimate("mt:", 1, SMALL)

    def test_nonnegative(self):
        for seed in (1, 2, 3):
            est, se = mc_estimate("mt:", seed, SMALL)
            assert est >= 0.0
            assert se >= 0.0

    def test_zero_strike_pays_nothing(self):
        cfg = replace(SMALL, strike_ratio=0.0, paths=50)
        assert mc_estimate("mt:", 1, cfg) == (0.0, 0.0)

    def test_zero_volatility_matches_closed_form_exactly(self):
        cfg = ToyModelConfig(
            paths=50, horizon_steps=10, volatility=0.0, strike_ratio=1.2
        )
        est, se = mc_estimate("mt:", 5, cfg)
        assert est == pytest.approx(closed_form_put(cfg), rel=1e-12)
        assert se < 1e-15

    def test_default_model_tracks_closed_form(self):
        cfg = ToyModelConfig()
        est, se = mc_estimate("mt:", 123, cfg)
        assert abs(est - closed_form_put(cfg)) < 3.0 * se

    def test_small_model_tracks_closed_form(self):
        est, se = mc_estimate("mt:", 1, SMALL)
        assert abs(est - closed_form_put(SMALL)) < 3.0 * se

    # (descriptor, seed, paths, steps) -> (estimate, standard error) as float hex,
    # for the default model, a small one and an odd one whose paths straddle
    # the chunk edges and carry a spare normal between paths
    GOLDEN = {
        ("mt:", 1, 1000, 80): ("0x1.72d902d685f24p-6", "0x1.82af9be6bd6c0p-10"),
        ("mt:", 1, 13, 7): ("0x1.0b60f5d8c186fp-12", "0x1.0b60f5d8c1870p-12"),
        ("mt:", 1, 101, 81): ("0x1.7a8a086e036a4p-6", "0x1.761f20e5d66e9p-8"),
        (SHORT_LCG, 1, 1000, 80): ("0x1.68c54530ce38ep-6", "0x1.7cbfcfc1edeafp-10"),
        (SHORT_LCG, 1, 13, 7): ("0x1.06447f92635e2p-10", "0x1.06447f92635e2p-10"),
        (SHORT_LCG, 1, 101, 81): ("0x1.7e79927e4b96dp-6", "0x1.0c2676ae154ccp-8"),
        ("wh:", 1, 1000, 80): ("0x1.8d55d1a60cd30p-6", "0x1.aaa8949aac1b0p-10"),
        ("wh:", 1, 13, 7): ("0x0.0p+0", "0x0.0p+0"),
        ("wh:", 1, 101, 81): ("0x1.b9fc821d59629p-6", "0x1.46bed852a815bp-8"),
        (ZERO_SKIP_LCG, 7, 1000, 80): ("0x1.08ca300b6d5efp-3", "0x1.8c9d3055abd8bp-19"),
        (ZERO_SKIP_LCG, 7, 13, 7): ("0x0.0p+0", "0x0.0p+0"),
        (ZERO_SKIP_LCG, 7, 101, 81): ("0x1.0d1abd1d637adp-3", "0x1.24f23fdda5102p-11"),
    }
    REFERENCE_SPECS = {"mt:": ["mt"], SHORT_LCG: ["lcg", 262144, 4649, 819], "wh:": ["wh"],
                       ZERO_SKIP_LCG: ["lcg", 10, 7, 7]}

    @pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}{k[1]}-{k[2]}x{k[3]}")
    def test_golden_estimates_bit_for_bit(self, key):
        descriptor, seed, paths, steps = key
        cfg = ToyModelConfig(paths=paths, horizon_steps=steps)
        want = tuple(float.fromhex(x) for x in self.GOLDEN[key])
        assert _bits(mc_estimate(descriptor, seed, cfg)) == _bits(want)
        # the benchmark's loop over its own stream, independent of rngaudit
        ref = _load_bench_reference()
        uniforms = ref.stream(ref.seeded(self.REFERENCE_SPECS[descriptor], seed),
                              paths * steps + 64)
        assert _bits(ref.box_muller_estimate(uniforms, cfg.to_dict())) == _bits(want)

    @pytest.mark.parametrize("descriptor,seed", [("mt:", 3), (SHORT_LCG, 2), ("wh:", 4),
                                                 (ZERO_SKIP_LCG, 7), (ODD_CYCLE_LCG, 1)])
    @pytest.mark.parametrize("steps", [1, 7, 81, _CHUNK_NORMALS + 3])
    def test_payoffs_match_the_scalar_loop(self, descriptor, seed, steps):
        cfg = ToyModelConfig(paths=3 * max(1, _CHUNK_NORMALS // steps) + 1, horizon_steps=steps)
        want = scalar_payoffs(ScalarGaussianStream(make_generator(descriptor, seed=seed)),
                              cfg, cfg.paths)
        got = mc_estimate(descriptor, seed, cfg)
        disc = math.exp(-cfg.discount_rate * steps)
        se = disc * float(want.std(ddof=1)) / math.sqrt(cfg.paths)
        assert _bits(got) == _bits((disc * float(want.mean()), se))


# ---------------------------------------------------------------------------
# seed sweeps


@pytest.fixture(scope="module")
def sweep():
    return seed_sweep("mt:", [1, 2, 3], SMALL)


class TestSeedSweep:
    def test_frozen_estimates(self, sweep):
        assert sweep.estimates == pytest.approx(
            [0.004881332127538505, 0.006102751952918964, 0.004409203459941093],
            rel=REL,
        )
        assert sweep.standard_errors == pytest.approx(
            [0.0010380395289193494, 0.0012326468150248148, 0.0010464203703844158],
            rel=REL,
        )

    def test_delta_matrix_definition(self, sweep):
        est = sweep.estimates
        for i in range(3):
            assert sweep.delta_pct[i, i] == 0.0
            for j in range(3):
                expected = (est[i] - est[j]) / est[j] * 100.0
                assert sweep.delta_pct[i, j] == pytest.approx(expected, rel=REL)

    def test_maximum_pair(self, sweep):
        assert sweep.max_abs_relative_delta == pytest.approx(38.40939771467243, rel=REL)
        assert sweep.max_pair == (2, 3)
        assert sweep.seed_effect_flag is False

    def test_to_dict_round_trips_through_json(self, sweep):
        d = json.loads(json.dumps(sweep.to_dict()))
        assert d["descriptor"] == "mt:"
        assert [p["seed"] for p in d["per_seed"]] == [1, 2, 3]
        assert d["per_seed"][0]["estimate"] == pytest.approx(
            0.004881332127538505, rel=REL
        )
        assert len(d["delta_pct"]) == 3 and len(d["delta_pct"][0]) == 3
        assert d["max_pair"] == [2, 3]
        assert d["seed_effect_flag"] is False
        assert "paths" in d["config"]
        assert "sample_size_note" in d

    def test_text_table_contents(self, sweep):
        text = sweep.to_text_table()
        assert "Delta estimate [%]" in text
        assert "+38.41" in text
        assert "not tripped" in text
        assert "3 x pooled standard error" in text
        for seed in (1, 2, 3):
            assert f"\n{seed:>10d}  " in text

    def test_flag_trips_on_dispersion_beyond_pooled_error(self):
        delta = np.array([[0.0, -50.0], [100.0, 0.0]])
        rep = SweepReport(
            descriptor="x:",
            config=SMALL,
            seeds=[1, 2],
            estimates=[0.01, 0.02],
            standard_errors=[1e-6, 1e-6],
            delta_pct=delta,
        )
        assert rep.seed_effect_flag is True
        assert rep.max_abs_relative_delta == 100.0
        assert rep.max_pair == (2, 1)
        assert "TRIPPED" in rep.to_text_table()

    def test_zero_volatility_sweep_has_no_dispersion(self):
        cfg = ToyModelConfig(
            paths=50, horizon_steps=10, volatility=0.0, strike_ratio=1.2
        )
        rep = seed_sweep("mt:", [1, 2], cfg)
        assert rep.max_abs_relative_delta == 0.0
        assert rep.seed_effect_flag is False

    def test_all_zero_estimates_give_zero_deltas(self):
        cfg = replace(SMALL, strike_ratio=0.0, paths=50)
        rep = seed_sweep("mt:", [1, 2], cfg)
        assert rep.estimates == [0.0, 0.0]
        assert np.all(rep.delta_pct == 0.0)
        assert rep.seed_effect_flag is False

    def test_rejects_fewer_than_two_seeds(self):
        with pytest.raises(ValueError, match="two seeds"):
            seed_sweep("mt:", [1], SMALL)

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="distinct"):
            seed_sweep("mt:", [1, 2, 1], SMALL)


# estimates with ties, zeros, signs and a ratio that overflows to inf
ESTIMATES = st.lists(st.sampled_from((0.0, 0.0125, 0.025, -0.0125, 0.01, 1e-300, 1e300)),
                     min_size=2, max_size=7)


class TestSweepTableAgainstLoops:
    @given(estimates=ESTIMATES, data=st.data())
    @example(estimates=[0.0, 0.0], data=None)
    @example(estimates=[0.01, 0.0125], data=None)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_matches_the_pair_loops(self, estimates, data):
        n = len(estimates)
        if data is None:
            ses = [1e-3] * n
        else:
            ses = data.draw(st.lists(st.sampled_from((0.0, 1e-3, 2e-3, 5e-3)),
                                     min_size=n, max_size=n))
        seeds = [10 * i + 3 for i in range(n)]
        delta = _delta_pct(estimates)
        assert _bits(delta) == _bits(delta_table_loop(estimates))
        rep = SweepReport("x:", SMALL, seeds, estimates, ses, delta)
        want = sweep_pairs_loop(seeds, estimates, ses, delta)
        assert (rep.max_abs_relative_delta, rep.max_pair, rep.seed_effect_flag) == want

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_max_pair_is_the_first_maximum_off_the_diagonal(self, data, n):
        # arbitrary tables: ties, zeros, negative entries, inf, nan and a busy diagonal
        cells = st.sampled_from((0.0, -0.0, 5.0, -5.0, 2.5, np.inf, -np.inf, np.nan))
        delta = np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
        estimates = data.draw(st.lists(st.sampled_from((0.01, 0.02, 0.05)),
                                       min_size=n, max_size=n))
        ses = [2e-3] * n
        seeds = list(range(100, 100 + n))
        rep = SweepReport("x:", SMALL, seeds, estimates, ses, delta)
        want = sweep_pairs_loop(seeds, estimates, ses, delta)
        assert (rep.max_abs_relative_delta, rep.max_pair, rep.seed_effect_flag) == want

    def test_table_is_the_only_square_array(self):
        # the delta table is n x n; building it and summarising it must not
        # hold a second array of that size, as the column and pair loops did
        # not.  256 KB leaves room for numpy's fixed ufunc buffers.
        n = 400
        rng = np.random.default_rng(3)
        estimates = (0.02 + 1e-3 * rng.standard_normal(n)).tolist()
        ses = (1e-4 * (1.0 + rng.random(n))).tolist()
        square = 8 * n * n
        tracemalloc.start()
        try:
            delta = _delta_pct(estimates)
            table_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            SweepReport("x:", SMALL, list(range(n)), estimates, ses, delta)
            report_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert table_peak < square + 256 * 1024
        assert report_peak < 256 * 1024


# ---------------------------------------------------------------------------
# convergence


class TestConvergenceReport:
    def test_rows_match_standalone_estimates(self):
        rows = convergence_report("mt:", 9, [50, 120, 200], SMALL)
        assert [n for n, _, _ in rows] == [50, 120, 200]
        for n, est, se in rows:
            assert (est, se) == mc_estimate("mt:", 9, replace(SMALL, paths=n))

    def test_rows_across_chunk_edges_with_odd_steps(self):
        # 81 steps: paths are simulated 50 at a time, and every odd path
        # count leaves a spare normal that the next row's first path uses
        cfg = ToyModelConfig(horizon_steps=81)
        schedule = [1, 49, 50, 51, 100, 101, 151]
        for descriptor, seed in (("mt:", 9), (ZERO_SKIP_LCG, 7), ("wh:", 2)):
            rows = convergence_report(descriptor, seed, schedule, cfg)
            oracle = ScalarGaussianStream(make_generator(descriptor, seed=seed))
            payoffs = scalar_payoffs(oracle, cfg, schedule[-1])
            disc = math.exp(-cfg.discount_rate * 81)
            for n, est, se in rows:
                assert (est, se) == mc_estimate(descriptor, seed, replace(cfg, paths=n))
                want_se = disc * float(payoffs[:n].std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
                assert _bits((est, se)) == _bits((disc * float(payoffs[:n].mean()), want_se))

    def test_repeated_count_reuses_the_prefix(self):
        rows = convergence_report("mt:", 9, [200, 200], SMALL)
        assert rows[0] == rows[1]

    def test_single_entry_schedule(self):
        rows = convergence_report("mt:", 9, [200], SMALL)
        assert rows[0] == (200, *mc_estimate("mt:", 9, SMALL))

    @pytest.mark.parametrize("schedule", [[], [0, 10], [100, 50]])
    def test_rejects_bad_schedules(self, schedule):
        with pytest.raises(ValueError):
            convergence_report("mt:", 9, schedule, SMALL)

    @pytest.mark.slow
    def test_error_shrinks_like_root_n_over_decades(self):
        rows = convergence_report("mt:", 77, [1000, 10_000, 100_000])
        scaled = [se * math.sqrt(n) for n, _, se in rows]
        for a, b in zip(scaled, scaled[1:]):
            assert a / b == pytest.approx(1.0, abs=0.25)
