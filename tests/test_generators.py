import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rngaudit import (
    FactorizationError,
    LcgParams,
    Lcg,
    WichmannHill,
    MT19937,
    Sample,
    full_period_predicate,
    brute_force_period,
    make_generator,
    save_sample,
    load_sample,
)
from rngaudit.generators import _JUMP, WH_AS183_MODULI, WH_AS183_MULTIPLIERS
from oracles import ScalarMT, dict_period, first_repeat_step, lcg_sequence

# Block sizes around the jump-ahead edges of bulk generation.
BLOCK_EDGES = (0, 1, _JUMP - 1, _JUMP, _JUMP + 1, 3 * _JUMP + 5)
# Interleavings of scalar draws ("u") and bulk draws of each edge size.
DRAWS = st.lists(st.sampled_from(("u", *BLOCK_EDGES)), min_size=1, max_size=4)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _draw_all(gen, draws):
    """Uniforms from an interleaving of next_uniform() and generate(n)."""
    out = []
    for d in draws:
        out.extend([gen.next_uniform()] if d == "u" else gen.generate(d).tolist())
    return out


# ---------------------------------------------------------------------------
# parameters and the raw recurrence


class TestLcgParams:
    def test_descriptor_round_trip(self):
        p = LcgParams(262144, 4649, 819, 1)
        assert p.descriptor == "lcg:m=262144,a=4649,c=819,seed=1"
        gen = make_generator(p.descriptor)
        assert gen.params == p

    def test_with_seed(self):
        p = LcgParams(100, 21, 1, 5)
        q = p.with_seed(17)
        assert q.seed == 17 and q.modulus == 100 and q.multiplier == 21
        assert p.seed == 5

    @pytest.mark.parametrize(
        "m,a,c,seed",
        [
            (0, 1, 0, 0),       # modulus too small
            (10, 0, 0, 0),      # multiplier must be positive
            (10, 10, 0, 0),     # multiplier must be < m
            (10, 7, 10, 0),     # increment must be < m
            (10, 7, -1, 0),     # increment negative
            (10, 7, 7, 10),     # seed must be < m
            (10, 7, 7, -1),     # seed negative
        ],
    )
    def test_invalid_params(self, m, a, c, seed):
        with pytest.raises(ValueError):
            LcgParams(m, a, c, seed)

    def test_no_gcd_constraint_at_construction(self):
        # degenerate-but-valid parameter sets must construct fine
        LcgParams(10, 2, 2, 0)
        LcgParams(12, 4, 6, 3)


class TestLcgNext:
    def test_ten_state_generator_cycles_through_four_values(self):
        gen = Lcg(LcgParams(10, 7, 7, 7))
        seen = []
        for _ in range(8):
            u = gen.next_uniform()
            seen.append((gen.state, u))
        assert [s for s, _ in seen] == [6, 9, 0, 7, 6, 9, 0, 7]
        assert [u for _, u in seen] == [0.6, 0.9, 0.0, 0.7, 0.6, 0.9, 0.0, 0.7]

    @given(
        m=st.integers(2, 10**9),
        a=st.integers(1, 10**9),
        c=st.integers(0, 10**9),
        y=st.integers(0, 10**9),
    )
    def test_state_stays_in_range(self, m, a, c, y):
        gen = Lcg(LcgParams(m, a % m or 1, c % m, y % m))
        u = gen.next_uniform()
        assert 0 <= gen.state < m
        assert 0.0 <= u < 1.0
        assert u == gen.state / m

    def test_exact_big_integers(self):
        # way past 2**64: must stay exact
        m = 2**97
        gen = Lcg(LcgParams(m, 3**40, 7**30, 12345))
        gen.next_uniform()
        assert gen.state == (3**40 * 12345 + 7**30) % m

    def test_stream_matches_reference_recurrence(self):
        p = LcgParams(2**18, 4649, 819, 1)
        gen = Lcg(p)
        got = gen.generate(500)
        want = [y / p.modulus for y in lcg_sequence(p.modulus, 4649, 819, 1, 500)]
        assert got.tolist() == want

    @given(m=st.one_of(st.integers(2, 2**32), st.integers(2, 2**97)),
           a=st.integers(1, 2**97), c=st.integers(0, 2**97),
           y=st.integers(0, 2**97), draws=DRAWS)
    @example(m=2**32, a=69069, c=1, y=2**32 - 1, draws=[3 * _JUMP + 5, "u", _JUMP + 1])
    @example(m=2**32 + 1, a=3**20, c=2**32, y=2**32, draws=[3 * _JUMP + 5, "u", _JUMP])
    @example(m=2**33 - 9, a=3**20, c=1, y=2**33 - 10, draws=[_JUMP + 1])  # A y + C > 2**64
    @settings(max_examples=40, deadline=None)
    def test_bulk_and_scalar_draws_follow_the_recurrence(self, m, a, c, y, draws):
        params = LcgParams(m, a % m or 1, c % m, y % m)
        gen = Lcg(params)
        got = _draw_all(gen, draws)
        states = lcg_sequence(m, params.multiplier, params.increment, params.seed,
                              len(got))
        assert _bits(got) == _bits([s / m for s in states])
        assert gen.state == (states[-1] if states else params.seed)


# ---------------------------------------------------------------------------
# full-period characterization and brute force


class TestFullPeriod:
    def test_ten_state_generator_is_not_full(self):
        assert not full_period_predicate(LcgParams(10, 7, 7, 7))

    def test_known_full_period(self):
        # power-of-two modulus: c odd, a % 4 == 1
        assert full_period_predicate(LcgParams(2**18, 4649, 819, 1))
        assert full_period_predicate(LcgParams(16, 5, 3, 0))

    def test_multiplier_one(self):
        # counter with coprime step walks every residue
        assert full_period_predicate(LcgParams(10, 1, 3, 0))
        assert not full_period_predicate(LcgParams(10, 1, 4, 0))

    def test_increment_sharing_factor_fails(self):
        assert not full_period_predicate(LcgParams(16, 5, 4, 0))

    def test_mod_four_condition(self):
        # m divisible by 4, a-1 only by 2: fails the power-of-two condition
        assert not full_period_predicate(LcgParams(16, 3, 1, 0))

    def test_factorization_bound(self):
        m = (2**61 - 1) * (2**31 - 1)  # two big primes, out of trial range
        with pytest.raises(FactorizationError):
            full_period_predicate(LcgParams(m, 3, 1, 0), factor_bound=10**5)

    def test_leftover_prime_certified(self):
        # 2 * p with p prime and p <= bound**2: decidable
        p = 999983
        params = LcgParams(2 * p, 3, 1, 0)
        assert full_period_predicate(params, factor_bound=1000) in (True, False)

    @given(st.integers(2, 400), st.data())
    @settings(max_examples=60, deadline=None)
    def test_predicate_agrees_with_brute_force(self, m, data):
        a = data.draw(st.integers(1, m - 1))
        c = data.draw(st.integers(0, m - 1))
        seed = data.draw(st.integers(0, m - 1))
        params = LcgParams(m, a, c, seed)
        period = brute_force_period(params, cap=2 * m)
        assert full_period_predicate(params) == (period == m)


class TestBruteForcePeriod:
    def test_ten_state_generator_has_period_four(self):
        assert brute_force_period(LcgParams(10, 7, 7, 7), cap=100) == 4

    def test_full_period_counts_modulus(self):
        assert brute_force_period(LcgParams(16, 5, 3, 0), cap=100) == 16

    def test_tail_not_counted(self):
        # 1 -> 2 -> 4 -> 0 -> 0: the cycle itself has length 1
        assert brute_force_period(LcgParams(8, 2, 0, 1), cap=100) == 1

    def test_fixed_point(self):
        assert brute_force_period(LcgParams(10, 1, 0, 3), cap=10) == 1

    def test_cap_exceeded_returns_none(self):
        assert brute_force_period(LcgParams(2**18, 4649, 819, 1), cap=1000) is None

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            brute_force_period(LcgParams(10, 7, 7, 7), cap=0)

    def test_large_cap_matches_dict_walk(self):
        # a cap far past the repeat must not change the answer
        params = LcgParams(5000, 421, 17, 3)
        assert brute_force_period(params, cap=2**31) == dict_period(params, cap=10**6)

    @given(st.integers(2, 400), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_walk(self, m, data):
        # every a (a = 1 and tails included), c, seed and cap
        params = LcgParams(m, data.draw(st.integers(1, m - 1)),
                           data.draw(st.integers(0, m - 1)),
                           data.draw(st.integers(0, m - 1)))
        cap = data.draw(st.integers(1, 2 * m + 2))
        assert brute_force_period(params, cap) == dict_period(params, cap)

    @given(st.integers(2, 400), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_cap_edges(self, m, data):
        params = LcgParams(m, data.draw(st.integers(1, m - 1)),
                           data.draw(st.integers(0, m - 1)),
                           data.draw(st.integers(0, m - 1)))
        edge = first_repeat_step(params)  # mu + lambda
        lam = dict_period(params, cap=edge)
        assert brute_force_period(params, cap=edge) == lam
        if edge > 1:
            assert brute_force_period(params, cap=edge - 1) is None

    @pytest.mark.parametrize("params,edge,lam", [
        (LcgParams(8, 2, 0, 1), 4, 1),            # 1 -> 2 -> 4 -> 0 -> 0
        (LcgParams(2**10 * 3, 6, 5, 1), 10, 1),   # tail of 9, below 2's exponent 10
        (LcgParams(2**16 * 7, 6, 1, 1), 17, 2),   # tail of 15, then a 2-cycle mod 7
        (LcgParams(2**20, 4651, 819, 9), 2**19, 2**19),  # across walk blocks
    ])
    def test_cap_edges_with_tails_and_long_cycles(self, params, edge, lam):
        assert first_repeat_step(params) == edge
        assert brute_force_period(params, cap=edge) == lam
        assert brute_force_period(params, cap=edge - 1) is None

    def test_minstd_walk_holds_no_modulus_sized_array(self):
        # minstd has period 2**31 - 2: a seen-array would take 8 GB and a
        # visited dict some 100 MB at this cap
        tracemalloc.start()
        try:
            assert brute_force_period(LcgParams(2**31 - 1, 16807, 0, 1), cap=10**6) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the Wichmann-Hill combined generator


class TestCombined:
    def test_step_all_components(self):
        wh = WichmannHill(1, 1, 1)
        u = wh.next_uniform()
        assert wh.states == (171, 172, 170)
        assert u == (171 / 30269 + 172 / 30307 + 170 / 30323) % 1.0
        # every later step against the component recurrence, summed in order
        states = wh.states
        for _ in range(1000):
            states = tuple(
                (a * s) % m
                for s, a, m in zip(states, WH_AS183_MULTIPLIERS, WH_AS183_MODULI)
            )
            want = sum(s / m for s, m in zip(states, WH_AS183_MODULI)) % 1.0
            assert wh.next_uniform() == want
        assert wh.states == states

    @given(seeds=st.tuples(st.integers(1, 30268), st.integers(1, 30306),
                           st.integers(1, 30322)), draws=DRAWS)
    @settings(max_examples=20, deadline=None)
    def test_bulk_and_scalar_draws_follow_the_recurrence(self, seeds, draws):
        wh = WichmannHill(*seeds)
        got = _draw_all(wh, draws)
        states, want = seeds, []
        for _ in got:
            states = tuple(
                (a * s) % m
                for s, a, m in zip(states, WH_AS183_MULTIPLIERS, WH_AS183_MODULI)
            )
            s1, s2, s3 = states
            want.append((s1 / 30269 + s2 / 30307 + s3 / 30323) % 1.0)
        assert _bits(got) == _bits(want)
        assert wh.states == states

    def test_validation(self):
        # each component seed lies in [1, m - 1] for its own modulus
        WichmannHill(30268, 30306, 30322)
        with pytest.raises(ValueError):
            WichmannHill(1, 30307, 1)
        with pytest.raises(ValueError):
            WichmannHill(1, 1, -1)

    def test_wh_first_output_golden(self):
        # frozen: fractional sum after one step from seeds (1, 1, 1)
        wh = WichmannHill(1, 1, 1)
        assert wh.next_uniform() == 0.01693090619965683

    def test_wh_outputs_in_range(self):
        wh = WichmannHill(123, 456, 789)
        vals = wh.generate(2000)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_wh_descriptor_round_trip(self):
        wh = WichmannHill(11, 22, 33)
        again = make_generator(wh.descriptor)
        assert np.array_equal(again.generate(50), WichmannHill(11, 22, 33).generate(50))

    def test_wh_seed_validation(self):
        with pytest.raises(ValueError):
            WichmannHill(0, 1, 1)
        with pytest.raises(ValueError):
            WichmannHill(1, 1, 30323)


# ---------------------------------------------------------------------------
# Mersenne Twister


class TestMT19937:
    def test_words_match_scalar_reference(self):
        for seed in (5489, 0, 97):
            ref = ScalarMT(seed)
            gen = MT19937(seed)
            assert [gen.next_word() for _ in range(1300)] == [
                ref.next_word() for _ in range(1300)
            ]

    def test_golden_ten_thousandth_word(self):
        gen = MT19937(5489)
        for _ in range(9999):
            gen.next_word()
        assert gen.next_word() == 4123659995

    def test_uniform_scaling(self):
        gen = MT19937(5489)
        word_gen = MT19937(5489)
        vals = [gen.next_uniform() for _ in range(100)]
        words = [word_gen.next_word() for _ in range(100)]
        assert vals == [w / 2**32 for w in words]

    def test_generate_matches_next_uniform_across_blocks(self):
        g1, g2 = MT19937(7), MT19937(7)
        a = g1.generate(1000)
        b = np.array([g2.next_uniform() for _ in range(1000)])
        assert np.array_equal(a, b)
        c = g1.generate(700)  # continues mid-block
        d = np.array([g2.next_uniform() for _ in range(700)])
        assert np.array_equal(c, d)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            MT19937(-1)
        with pytest.raises(ValueError):
            MT19937(2**32)


# ---------------------------------------------------------------------------
# descriptors


class TestMakeGenerator:
    def test_lcg(self):
        gen = make_generator("lcg:m=10,a=7,c=7,seed=7")
        assert isinstance(gen, Lcg)
        assert gen.generate(4).tolist() == [0.6, 0.9, 0.0, 0.7]

    def test_mt(self):
        gen = make_generator("mt:seed=5489")
        assert isinstance(gen, MT19937)
        assert gen.next_word() == MT19937(5489).next_word()

    def test_seed_override(self):
        gen = make_generator("lcg:m=100,a=21,c=1,seed=5", seed=42)
        assert gen.params.seed == 42

    def test_lcg_seed_defaults_when_overridden(self):
        gen = make_generator("lcg:m=100,a=21,c=1", seed=42)
        assert gen.params.seed == 42

    def test_wh_seed_fold(self):
        gen = make_generator("wh:seed1=1,seed2=2,seed3=3", seed=12345)
        fields = dict(kv.split("=") for kv in gen.descriptor[3:].split(","))
        for key, m in zip(("seed1", "seed2", "seed3"), (30269, 30307, 30323)):
            assert 1 <= int(fields[key]) <= m - 1

    @given(
        gen=st.one_of(
            st.builds(
                lambda m, a, c, y: Lcg(LcgParams(m, a % m or 1, c % m, y % m)),
                st.integers(2, 2**64), st.integers(1, 2**64),
                st.integers(0, 2**64), st.integers(0, 2**64),
            ),
            st.builds(WichmannHill, st.integers(1, 30268), st.integers(1, 30306),
                      st.integers(1, 30322)),
            st.builds(MT19937, st.integers(0, 2**32 - 1)),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_descriptor_rebuilds_the_stream(self, gen):
        again = make_generator(gen.descriptor)
        assert type(again) is type(gen)
        assert again.generate(1000).tolist() == gen.generate(1000).tolist()

    @pytest.mark.parametrize(
        "descriptor",
        [
            "xyz:m=10",
            "lcg:m=10,a=12,c=1,seed=1",   # a >= m
            "lcg:m=10,a=7",               # missing field
            "lcg:m=10,a=7,c=1,seed=1,x=2",  # unknown field
            "lcg:m=ten,a=7,c=1,seed=1",
            "mt:",
            "",
        ],
    )
    def test_bad_descriptors(self, descriptor):
        with pytest.raises(ValueError):
            make_generator(descriptor)


# ---------------------------------------------------------------------------
# samples on disk


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            Sample(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            Sample(np.array([-0.1]))

    def test_immutable(self):
        s = Sample(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            s.values[0] = 0.9

    def test_round_trip_bit_exact(self, tmp_path):
        gen = make_generator("mt:seed=5489")
        s = gen.sample(500)
        path = tmp_path / "sample.txt"
        save_sample(s, path)
        back = load_sample(path)
        assert np.array_equal(back.values, s.values)
        assert back.provenance == "mt:seed=5489"

    def test_header_first_line(self, tmp_path):
        s = Sample(np.array([0.5]), provenance="lcg:m=10,a=7,c=7,seed=7")
        path = tmp_path / "s.txt"
        save_sample(s, path)
        first = path.read_text().splitlines()[0]
        assert first == "# rngaudit-sample v1 lcg:m=10,a=7,c=7,seed=7"

    def test_comments_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text("# a comment\n0.25\n\n# another\n0.75\n")
        s = load_sample(path)
        assert s.values.tolist() == [0.25, 0.75]
        assert s.provenance == "external file"

    def test_non_numeric_line_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.25\n\n# note\n0.5x\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: .*'0\.5x'"):
            load_sample(path)

    def test_no_temp_litter(self, tmp_path):
        save_sample(Sample(np.array([0.5])), tmp_path / "s.txt")
        assert sorted(os.listdir(tmp_path)) == ["s.txt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sample(tmp_path / "nope.txt")

    @given(values=st.lists(st.floats(min_value=0.0, max_value=math.nextafter(1.0, 0.0)),
                           min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_round_trip_arbitrary_uniforms(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "s.txt"
        save_sample(Sample(np.array(values)), path)
        assert load_sample(path).values.tolist() == values
