"""Tests for the seed-sensitivity Monte Carlo harness."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rngaudit import seedlab
from rngaudit.cli import EXIT_REJECT, main
from rngaudit.generators import _JUMP, make_generator
from rngaudit.seedlab import (
    TWO_PI,
    GaussianStream,
    ToyModelConfig,
    _CHUNK_NORMALS,
    _delta_pct,
    _largest_delta,
    mc_estimate,
    seed_sweep,
)

from oracles import (
    FixedUniforms,
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


def _box_muller(*uniforms):
    """The normals that ``normals`` makes of exactly these uniforms."""
    return GaussianStream(FixedUniforms(uniforms)).normals(len(uniforms)).tolist()


def _scalar_normals(uniforms):
    """The scalar oracle's normals of these uniforms, taken as pairs."""
    oracle = ScalarGaussianStream(FixedUniforms(uniforms))
    return [oracle.next_gaussian() for _ in uniforms]


def _sweep_of(seeds, estimates, ses):
    """``seed_sweep`` with each seed's (estimate, standard error) given
    rather than simulated."""
    pairs = dict(zip(seeds, zip(estimates, ses)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seedlab, "mc_estimate", lambda descriptor, seed, config: pairs[seed])
        return seed_sweep("x:", seeds, SMALL)


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
    """Closed-form points of the transform, through ``normals`` on fixed uniforms."""

    def test_closed_form_point(self):
        # -2 ln(e**-2) = 4, angle 0: radius 2 entirely on the cosine leg
        z1, z2 = _box_muller(math.exp(-2.0), 0.0)
        assert z1 == pytest.approx(2.0, rel=REL)
        assert z2 == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn_moves_radius_to_second_leg(self):
        z1, z2 = _box_muller(math.exp(-2.0), 0.25)
        assert z1 == pytest.approx(0.0, abs=1e-14)
        assert z2 == pytest.approx(2.0, rel=REL)

    def test_median_radius(self):
        z1, _ = _box_muller(0.5, 0.0)
        assert z1 == pytest.approx(math.sqrt(2.0 * math.log(2.0)), rel=REL)

    @given(
        u1=st.floats(1e-300, 1.0, exclude_max=True),
        u2=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_pair_radius_identity(self, u1, u2):
        z1, z2 = _box_muller(u1, u2)
        assert z1 * z1 + z2 * z2 == pytest.approx(-2.0 * math.log(u1), rel=1e-9)


def _angle_fractions(kind):
    """Fractions u2 of a turn: a full grid k / m, or a fixed sample of MT
    words over 2**32 (the uniforms of ``mt:``)."""
    if kind == "mt-words":
        return make_generator("mt:", seed=20180501).generate(1 << 20)
    m = 1 << {"grid-2^18": 18, "grid-2^20": 20}[kind]
    return np.arange(m) / m


class TestTrigIsLibm:
    """``normals`` takes the cosine and sine of the angle from numpy's float64
    ufuncs, and its normals (so every sweep estimate) are bit for bit the
    scalar loop's only because numpy calls libm's sin and cos once per value,
    as the math module does.  The grid of 2**18 is that of the short LCG and
    the figure generator."""

    @pytest.mark.parametrize("kind", ["grid-2^18", "grid-2^20", "mt-words"])
    def test_cos_and_sin_are_maths_bit_for_bit(self, kind):
        u2 = _angle_fractions(kind)
        theta = (TWO_PI * u2).tolist()
        # radius sqrt(-2 ln e**-0.5) is exactly 1, so each normal is the
        # cosine or sine itself
        u1 = math.exp(-0.5)
        assert math.sqrt(-2.0 * math.log(u1)) == 1.0
        uniforms = np.empty(2 * u2.size)
        uniforms[0::2], uniforms[1::2] = u1, u2
        z = GaussianStream(FixedUniforms(uniforms)).normals(uniforms.size)
        for name, got in (("cos", z[0::2]), ("sin", z[1::2])):
            want = np.fromiter(map(getattr(math, name), theta), np.float64, len(theta))
            bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert bad.size == 0, (
                f"the Box-Muller {name} differs from math.{name} on {bad.size} of "
                f"{len(theta)} angles 2 pi u2 ({kind}), first at u2 = {float(u2[bad[0]])!r}. "
                f"A numpy which vectorises float64 sin/cos changes every sweep estimate."
            )


class TestGaussianStream:
    def test_zero_uniform_skipped_and_counted(self):
        # the 10-state generator emits 0.6, 0.9, 0.0, 0.7, 0.6, ...; the
        # zero lands in the u1 slot of the second pair and must be skipped
        s = GaussianStream(make_generator("lcg:m=10,a=7,c=7,seed=7"))
        z = s.normals(4).tolist()
        assert _bits(z) == _bits(_scalar_normals([0.6, 0.9, 0.7, 0.6]))
        assert s.zero_skips == 1

    def test_skip_counter_increments_at_the_skip(self):
        s = GaussianStream(make_generator("lcg:m=10,a=7,c=7,seed=7"))
        s.normals(1)
        s.normals(1)
        assert s.zero_skips == 0
        s.normals(1)
        assert s.zero_skips == 1

    def test_pair_is_buffered(self):
        s = GaussianStream(make_generator("mt:seed=3"))
        reference = GaussianStream(make_generator("mt:seed=3"))
        a = [s.normals(1)[0] for _ in range(6)]
        assert _bits(a) == _bits(reference.normals(6))

    def test_stream_matches_pairwise_transform(self):
        u = make_generator("mt:seed=8").generate(10)
        s = GaussianStream(make_generator("mt:seed=8"))
        assert _bits(s.normals(10)) == _bits(_scalar_normals(u))

    # a draw sequence: "g" is one normals(1), an int k is normals(k);
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
            got.extend(stream.normals(1 if call == "g" else call).tolist())
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
            {"paths": 1},
            {"drift": math.inf},
            {"volatility": math.nan},
            {"discount_rate": math.nan},
            {"strike_ratio": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToyModelConfig(**kwargs)

    def test_asdict_round_trips_through_json(self):
        d = json.loads(json.dumps(asdict(ToyModelConfig())))
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
        assert _bits(ref.box_muller_estimate(uniforms, asdict(cfg))) == _bits(want)

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

    @pytest.mark.parametrize("kwargs", [
        {"drift": 1000.0},  # math.exp of a terminal log level
        {"discount_rate": -1000.0},  # math.exp of the discount
        {"volatility": 1e200},  # volatility**2
        {"drift": 1e308},  # numpy's cumulative sum along a path
        {"strike_ratio": 1e308},  # numpy's mean of the payoffs
        {"discount_rate": -300.0, "strike_ratio": 1e50},  # discount times the mean
    ])
    def test_overflow_is_a_value_error_naming_the_model(self, kwargs):
        cfg = ToyModelConfig(paths=4, horizon_steps=2, **kwargs)
        with pytest.raises(ValueError, match="the model overflows a float") as info:
            mc_estimate("mt:", 1, cfg)
        for field, value in kwargs.items():
            assert f"{field}={value}" in str(info.value)

    @pytest.mark.slow
    def test_error_shrinks_like_root_n_over_decades(self):
        scaled = []
        for n in (1000, 10_000, 100_000):
            _, se = mc_estimate("mt:", 77, ToyModelConfig(paths=n))
            scaled.append(se * math.sqrt(n))
        for a, b in zip(scaled, scaled[1:]):
            assert a / b == pytest.approx(1.0, abs=0.25)


# ---------------------------------------------------------------------------
# seed sweeps


@pytest.fixture(scope="module")
def sweep():
    return seed_sweep("mt:", [1, 2, 3], SMALL)


class TestSeedSweep:
    def test_frozen_estimates(self, sweep):
        per_seed = sweep.detail["per_seed"]
        assert [r["estimate"] for r in per_seed] == pytest.approx(
            [0.004881332127538505, 0.006102751952918964, 0.004409203459941093],
            rel=REL,
        )
        assert [r["standard_error"] for r in per_seed] == pytest.approx(
            [0.0010380395289193494, 0.0012326468150248148, 0.0010464203703844158],
            rel=REL,
        )

    def test_delta_matrix_definition(self, sweep):
        est = [r["estimate"] for r in sweep.detail["per_seed"]]
        delta = sweep.detail["delta_pct"]
        for i in range(3):
            assert delta[i][i] == 0.0
            for j in range(3):
                expected = (est[i] - est[j]) / est[j] * 100.0
                assert delta[i][j] == pytest.approx(expected, rel=REL)

    def test_maximum_pair(self, sweep):
        assert sweep.name == "seed-effect"
        assert sweep.statistic == pytest.approx(38.40939771467243, rel=REL)
        assert sweep.detail["max_abs_relative_delta"] == sweep.statistic
        assert sweep.detail["max_pair"] == [2, 3]
        assert sweep.detail["seed_effect_flag"] is False
        assert sweep.verdict == "pass"

    def test_to_dict_round_trips_through_json(self, sweep):
        r = json.loads(json.dumps(sweep.to_dict()))
        assert r["name"] == "seed-effect" and r["verdict"] == "pass"
        assert r["p_value"] is None and r["alpha"] is None
        d = r["detail"]
        assert d["descriptor"] == "mt:"
        assert [p["seed"] for p in d["per_seed"]] == [1, 2, 3]
        assert d["per_seed"][0]["estimate"] == pytest.approx(
            0.004881332127538505, rel=REL
        )
        assert len(d["delta_pct"]) == 3 and len(d["delta_pct"][0]) == 3
        assert d["max_pair"] == [2, 3]
        assert d["seed_effect_flag"] is False
        assert d["config"] == asdict(SMALL)
        assert "sample_size_note" in d

    def test_text_table_contents(self, capsys):
        main(["sweep", "mt:", "--seeds", "1,2,3", "--paths", "200", "--steps", "20"])
        text = capsys.readouterr().out.splitlines()
        assert text[0].split() == ["seed-effect", "statistic=38.4094", "p=n/a", "pass"]
        assert text[1].split() == ["seed", "estimate", "standard_error"]
        assert [line.split()[0] for line in text[2:5]] == ["1", "2", "3"]
        assert text[2].split()[1:] == ["0.00488133", "0.00103804"]
        assert text[-1] == "=> pass (max_abs_relative_delta=38.4094, max_pair=2,3, n_seeds=3)"

    def test_flag_trips_on_dispersion_beyond_pooled_error(self, monkeypatch, capsys):
        pairs = {1: (0.01, 1e-6), 2: (0.02, 1e-6)}
        monkeypatch.setattr(seedlab, "mc_estimate", lambda descriptor, seed, config: pairs[seed])
        rep = seed_sweep("x:", [1, 2], SMALL)
        assert rep.verdict == "reject"
        assert rep.detail["seed_effect_flag"] is True
        assert rep.statistic == 100.0
        assert rep.detail["max_pair"] == [2, 1]
        assert rep.detail["delta_pct"] == [[0.0, -50.0], [100.0, 0.0]]
        assert main(["sweep", "x:", "--seeds", "1,2"]) == EXIT_REJECT
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[-1] == "reject" and out[-1].startswith("=> reject (")

    def test_zero_estimate_states_the_error_in_absolute_terms(self, monkeypatch):
        # no error is relative to a zero estimate: the note gives the mean
        # standard error and its noise band in the estimate's units, not nan%
        pairs = {1: (0.0, 0.0), 2: (0.002, 0.001)}
        monkeypatch.setattr(seedlab, "mc_estimate", lambda descriptor, seed, config: pairs[seed])
        note = seed_sweep("x:", [1, 2], SMALL).detail["sample_size_note"]
        assert note == (f"{SMALL.paths} paths per seed; mean Monte Carlo error 0.0005 "
                        "(absolute, as an estimate is 0). Differences within ~0.00212 "
                        "are consistent with sampling noise alone.")

    def test_zero_volatility_sweep_has_no_dispersion(self):
        cfg = ToyModelConfig(
            paths=50, horizon_steps=10, volatility=0.0, strike_ratio=1.2
        )
        rep = seed_sweep("mt:", [1, 2], cfg)
        assert rep.statistic == 0.0
        assert rep.verdict == "pass"

    def test_all_zero_estimates_give_zero_deltas(self):
        cfg = replace(SMALL, strike_ratio=0.0, paths=50)
        rep = seed_sweep("mt:", [1, 2], cfg)
        assert [r["estimate"] for r in rep.detail["per_seed"]] == [0.0, 0.0]
        assert rep.detail["delta_pct"] == [[0.0, 0.0], [0.0, 0.0]]
        assert rep.verdict == "pass"

    def test_one_estimate_per_seed_from_one_stream_each(self, monkeypatch):
        # mc_estimate(descriptor, seed, config) once per seed, in order, each
        # drawing from exactly one GaussianStream
        calls, streams = [], []

        class RecordingStream(GaussianStream):
            def __init__(self, generator):
                super().__init__(generator)
                streams.append(self)

        def recording_estimate(descriptor, seed, config):
            calls.append((descriptor, seed, config))
            return mc_estimate(descriptor, seed, config)

        monkeypatch.setattr(seedlab, "GaussianStream", RecordingStream)
        monkeypatch.setattr(seedlab, "mc_estimate", recording_estimate)
        seed_sweep(ZERO_SKIP_LCG, [7, 3], SMALL)
        assert calls == [(ZERO_SKIP_LCG, 7, SMALL), (ZERO_SKIP_LCG, 3, SMALL)]
        assert len(streams) == 2 and streams[0].zero_skips > 0

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
        rep = _sweep_of(seeds, estimates, ses)
        delta = delta_table_loop(estimates)
        assert _bits(rep.detail["delta_pct"]) == _bits(delta)
        best, pair, flag = sweep_pairs_loop(seeds, estimates, ses, delta)
        assert _bits([rep.statistic]) == _bits([best])
        assert tuple(rep.detail["max_pair"]) == pair
        assert rep.detail["seed_effect_flag"] is flag
        assert rep.verdict == ("reject" if flag else "pass")

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_max_pair_is_the_first_maximum_off_the_diagonal(self, data, n):
        # arbitrary tables: ties, zeros, negative entries, inf, nan and a busy diagonal
        cells = st.sampled_from((0.0, -0.0, 5.0, -5.0, 2.5, np.inf, -np.inf, np.nan))
        delta = np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
        estimates = data.draw(st.lists(st.sampled_from((0.01, 0.02, 0.05)),
                                       min_size=n, max_size=n))
        ses = [2e-3] * n
        want = sweep_pairs_loop(list(range(n)), estimates, ses, delta)
        assert _largest_delta(delta, estimates, ses) == want

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
            _largest_delta(delta, estimates, ses)
            summary_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert table_peak < square + 256 * 1024
        assert summary_peak < 256 * 1024
