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
from rngaudit import generators
from rngaudit.generators import _JUMP, WH_AS183_MODULI, WH_AS183_MULTIPLIERS, _lcg_states
from rngaudit.stats import STAT_BLOCK
from oracles import (
    ScalarMT,
    dict_period,
    first_repeat_step,
    lcg_sequence,
    load_sample_lines,
)

# Block sizes around the jump-ahead edges of bulk generation (which are
# also the scalar refill size) and around the 624-word MT twist.
BLOCK_EDGES = (0, 1, 623, 624, 625, _JUMP - 1, _JUMP, _JUMP + 1, 3 * _JUMP + 5)
# Runs of scalar draws: one, and one more than a refill holds.
SCALAR_RUNS = {"u": 1, "u*": _JUMP + 1}
# Interleavings of scalar runs and bulk draws of each edge size.
DRAWS = st.lists(st.sampled_from((*SCALAR_RUNS, *BLOCK_EDGES)), min_size=1, max_size=4)
# Runs of _block sizes around the jump: later blocks continue from the
# last _JUMP states of the ones before, a partial tail or a full one.
BLOCKS = st.lists(st.sampled_from((1, _JUMP - 1, _JUMP, _JUMP + 1, 3 * _JUMP + 5)),
                  min_size=2, max_size=4)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _draw_all(gen, draws):
    """Uniforms from an interleaving of next_uniform() and generate(n)."""
    out = []
    for d in draws:
        if d in SCALAR_RUNS:
            out.extend(gen.next_uniform() for _ in range(SCALAR_RUNS[d]))
        else:
            out.extend(gen.generate(d).tolist())
    return out


def _wh_sequence(seeds, n):
    """n Wichmann-Hill uniforms from the component recurrence, summed in order."""
    states, out = seeds, []
    for _ in range(n):
        states = tuple(
            (a * s) % m for s, a, m in zip(states, WH_AS183_MULTIPLIERS, WH_AS183_MODULI)
        )
        out.append(sum(s / m for s, m in zip(states, WH_AS183_MODULI)) % 1.0)
    return out


def _mt_words(values):
    """MT uniforms back to their 32-bit words (word / 2**32 is exact)."""
    return (np.asarray(values) * 2**32).astype(np.uint64).tolist()


# ---------------------------------------------------------------------------
# parameters and the raw recurrence


class TestLcgParams:
    def test_descriptor_round_trip(self):
        p = LcgParams(262144, 4649, 819, 1)
        assert p.descriptor == "lcg:m=262144,a=4649,c=819,seed=1"
        gen = make_generator(p.descriptor)
        assert gen.params == p

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
        seen = [gen.next_uniform() for _ in range(8)]
        assert lcg_sequence(10, 7, 7, 7, 8) == [6, 9, 0, 7, 6, 9, 0, 7]
        assert seen == [0.6, 0.9, 0.0, 0.7, 0.6, 0.9, 0.0, 0.7]

    @given(
        m=st.integers(2, 10**9),
        a=st.integers(1, 10**9),
        c=st.integers(0, 10**9),
        y=st.integers(0, 10**9),
    )
    def test_state_stays_in_range(self, m, a, c, y):
        params = LcgParams(m, a % m or 1, c % m, y % m)
        u = Lcg(params).next_uniform()
        (state,) = lcg_sequence(m, params.multiplier, params.increment, params.seed, 1)
        assert 0.0 <= u < 1.0
        assert u == state / m

    def test_exact_big_integers(self):
        # way past 2**64: must stay exact
        m = 2**97
        gen = Lcg(LcgParams(m, 3**40, 7**30, 12345))
        assert gen.next_uniform() == (3**40 * 12345 + 7**30) % m / m
        # a state rounded anywhere would derail every later value
        states = lcg_sequence(m, 3**40, 7**30, 12345, 3 * _JUMP)
        got = [gen.next_uniform() for _ in range(_JUMP)] + gen.generate(2 * _JUMP - 1).tolist()
        assert _bits(got) == _bits([s / m for s in states[1:]])

    def test_stream_matches_reference_recurrence(self):
        p = LcgParams(2**18, 4649, 819, 1)
        gen = Lcg(p)
        got = gen.generate(500)
        want = [y / p.modulus for y in lcg_sequence(p.modulus, 4649, 819, 1, 500)]
        assert got.tolist() == want

    def test_block_is_exact_for_lcg_and_wh(self):
        for gen in (Lcg(LcgParams(2**18, 4649, 819, 1)), WichmannHill(1, 2, 3)):
            assert [gen._block(n).size for n in (1, 623, 625, _JUMP + 1)] == [
                1, 623, 625, _JUMP + 1]

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

    @given(m=st.one_of(st.integers(2, 2**32), st.integers(2**32 + 1, 2**97)),
           a=st.integers(1, 2**97), c=st.integers(0, 2**97),
           y=st.integers(0, 2**97), blocks=BLOCKS)
    @example(m=2**32, a=69069, c=1, y=2**32 - 1, blocks=[_JUMP - 1, _JUMP + 1, _JUMP])
    @example(m=2**33 - 9, a=3**20, c=1, y=2**33 - 10,  # A y + C > 2**64
             blocks=[_JUMP + 1, 3 * _JUMP + 5, 1])
    @settings(max_examples=25, deadline=None)
    def test_blocks_continue_the_recurrence(self, m, a, c, y, blocks):
        params = LcgParams(m, a % m or 1, c % m, y % m)
        gen = Lcg(params)
        got = np.concatenate([gen._block(n) for n in blocks])
        states = lcg_sequence(m, params.multiplier, params.increment, params.seed,
                              sum(blocks))
        assert _bits(got) == _bits([s / m for s in states])


# Block sizes around every doubling of the fill, and past its longest jump.
FILL_SIZES = sorted({1, 2, 3, 3 * _JUMP + 5} | {2**j + e for j in range(2, 14) for e in (-1, 0, 1)})
# (m, a, c, seed) from a 10-state toy to moduli far above 2**64
FILL_PARAMS = [
    (2, 1, 1, 0),  # the least modulus, masked by 1
    (10, 7, 7, 7),
    (2**18, 4649, 819, 1),
    (2**20, 4651, 819, 9),
    (2**31 - 1, 16807, 0, 1),
    (2**32, 1664525, 1013904223, 2**32 - 1),
    (2**32 + 1, 3**20, 2**32, 2**32),
    (2**48, 25214903917, 11, 12345),
    (2**64, 6364136223846793005, 1442695040888963407, 2**64 - 1),  # masked Python ints
    (2**97, 3**40, 7**30, 12345),
]


class TestDoublingFill:
    @pytest.mark.parametrize("m,a,c,seed", FILL_PARAMS, ids=lambda v: str(v))
    def test_states_and_uniforms_follow_the_recurrence(self, m, a, c, seed):
        want = lcg_sequence(m, a, c, seed, max(FILL_SIZES) + 1)
        for n in FILL_SIZES:
            states, tail = _lcg_states(m, a, c, (seed,), n)
            assert [int(s) for s in states] == want[:n]
            # the tail is the last _JUMP states, seed included, oldest first
            assert [int(s) for s in tail] == ([seed] + want[:n])[-_JUMP:]
            gen = Lcg(LcgParams(m, a, c, seed))
            assert _bits(gen.generate(n)) == _bits([s / m for s in want[:n]])
            # the generator's own state is the last one: the stream continues
            assert _bits(gen.generate(1)) == _bits([want[n] / m])

    def test_empty_fill_keeps_the_state(self):
        states, tail = _lcg_states(2**18, 4649, 819, (5,), 0)
        assert states.size == 0 and tail.tolist() == [5]

    def test_wichmann_hill(self):
        seeds = (1, 2, 3)
        want = _wh_sequence(seeds, max(FILL_SIZES) + 1)
        for n in FILL_SIZES:
            gen = WichmannHill(*seeds)
            assert _bits(gen.generate(n)) == _bits(want[:n])
            assert _bits(gen.generate(1)) == _bits(want[n : n + 1])

    def test_bulk_draw_holds_no_temporary_above_a_jump(self):
        # the uniforms take 8n bytes; a temporary of more than a block of
        # STAT_BLOCK values, or a state array beside them, would show on top
        n = 10**6
        assert _peak(lambda: _lcg_states(2**31 - 1, 16807, 0, (1,), n)) <= 8 * n + 16 * 8 * _JUMP
        # per value of a block: states, uniforms and jump temporaries, in
        # uint64 or, for m > 2**32, as Python integers and floats
        for descriptor, block_bytes in [("lcg:m=2147483647,a=16807,c=0,seed=1", 32),
                                        ("lcg:m=8589934583,a=3486784401,c=1,seed=5", 128),
                                        ("wh:seed1=1,seed2=2,seed3=3", 32), ("mt:seed=1", 32)]:
            gen = make_generator(descriptor)
            assert _peak(lambda: gen.generate(n)) <= 8 * n + block_bytes * STAT_BLOCK, descriptor
            assert _peak(lambda: gen.sample(n)) <= 8 * n + block_bytes * STAT_BLOCK, descriptor

    @pytest.mark.parametrize("n", [STAT_BLOCK - 1, STAT_BLOCK, STAT_BLOCK + 1, 2 * STAT_BLOCK + 3])
    def test_draws_across_the_stat_blocks(self, n):
        # bulk draws fill their output a block of STAT_BLOCK values at a time
        seeds = (11, 22, 33)
        families = [
            (Lcg(LcgParams(2**31 - 1, 16807, 0, 12345)),
             [s / (2**31 - 1) for s in lcg_sequence(2**31 - 1, 16807, 0, 12345, n + 1)]),
            (Lcg(LcgParams(2**33 - 9, 3**20, 1, 5)),
             [s / (2**33 - 9) for s in lcg_sequence(2**33 - 9, 3**20, 1, 5, n + 1)]),
            (WichmannHill(*seeds), _wh_sequence(seeds, n + 1)),
        ]
        mt = ScalarMT(4357)
        families.append((MT19937(4357), [mt.next_word() / 2**32 for _ in range(n + 1)]))
        for gen, want in families:
            assert _bits(gen.generate(n)) == _bits(want[:n])
            assert _bits(gen.generate(1)) == _bits(want[n:])


def _peak(draw) -> int:
    """The peak of traced memory while ``draw()`` runs."""
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_moduli_match_dict_walk(self, bits, data):
        # the walk reduces these states by a mask
        m = 2**bits
        params = LcgParams(m, data.draw(st.integers(1, m - 1)),
                           data.draw(st.integers(0, m - 1)),
                           data.draw(st.integers(0, m - 1)))
        cap = data.draw(st.integers(1, 2 * m + 2))
        assert brute_force_period(params, cap) == dict_period(params, cap)

    @pytest.mark.parametrize("params", [LcgParams(2**20, 4649, 819, 3),
                                        LcgParams(2**20, 4651, 819, 3),
                                        LcgParams(2**40, 2**28 + 1, 0, 3),
                                        LcgParams(2**40, 3 * 2**20, 5, 1)])
    def test_power_of_two_walks_match_dict_walk(self, params):
        # across walk blocks: the full period and cycles of 2**19; on Python
        # integers: a cycle of 2**12, and a tail of 2 into a fixed point
        assert brute_force_period(params, 2**21) == dict_period(params, 2**21)

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
        # full period 3 * 2**17: the last walk block is a partial one
        (LcgParams(3 * 2**17, 925, 1, 5), 3 * 2**17, 3 * 2**17),
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
        want = _wh_sequence((1, 1, 1), 1001)
        assert want[0] == (171 / 30269 + 172 / 30307 + 170 / 30323) % 1.0
        # every step against the component recurrence, summed in order
        assert [wh.next_uniform() for _ in range(1001)] == want

    @given(seeds=st.tuples(st.integers(1, 30268), st.integers(1, 30306),
                           st.integers(1, 30322)), draws=DRAWS)
    @settings(max_examples=20, deadline=None)
    def test_bulk_and_scalar_draws_follow_the_recurrence(self, seeds, draws):
        got = _draw_all(WichmannHill(*seeds), draws)
        assert _bits(got) == _bits(_wh_sequence(seeds, len(got)))

    @given(seeds=st.tuples(st.integers(1, 30268), st.integers(1, 30306),
                           st.integers(1, 30322)), blocks=BLOCKS)
    @settings(max_examples=10, deadline=None)
    def test_blocks_continue_the_recurrence(self, seeds, blocks):
        gen = WichmannHill(*seeds)
        got = np.concatenate([gen._block(n) for n in blocks])
        assert _bits(got) == _bits(_wh_sequence(seeds, sum(blocks)))

    def test_fractional_part_of_integer_and_near_three_sums(self, monkeypatch):
        # component uniforms that no states give: sums that are integers (the
        # part is +0.0), the sum that rounds to 3 - 2**-51, and random sums
        below = 1 - 2**-53
        ends = [(0.0, 0.0, 0.0), (0.5, 0.25, 0.25), (0.5, 0.5, 0.0), (0.75, 0.75, 0.5),
                (below, below, below), (below, 0.5, 0.5), (0.5, 0.5, below)]
        rng = np.random.default_rng(28)
        parts = np.concatenate([np.array(ends), rng.random((1000, 3))]).T
        monkeypatch.setattr(generators, "_uniforms",
                            lambda states, m: parts[WH_AS183_MODULI.index(m)])
        out = np.empty(parts.shape[1])
        WichmannHill(1, 1, 1)._fill(out)
        want = [(0.0 + u1 + u2 + u3) % 1.0 for u1, u2, u3 in parts.T.tolist()]
        assert _bits(out) == _bits(want)
        assert _bits(out[:5]) == _bits([0.0, 0.0, 0.0, 0.0, 1 - 2**-51])

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
        for seed in (5489, 0, 97, 2**32 - 1):
            ref = ScalarMT(seed)
            assert _mt_words(MT19937(seed).generate(1300)) == [
                ref.next_word() for _ in range(1300)
            ]

    def test_golden_ten_thousandth_word(self):
        ref = ScalarMT(5489)
        for _ in range(9999):
            ref.next_word()
        assert ref.next_word() == 4123659995
        assert _mt_words(MT19937(5489).generate(10_000))[-1] == 4123659995

    def test_uniform_scaling(self):
        ref = ScalarMT(5489)
        gen = MT19937(5489)
        vals = [gen.next_uniform() for _ in range(100)]
        assert vals == [ref.next_word() / 2**32 for _ in range(100)]
        assert all(type(u) is float for u in vals)

    @given(seed=st.integers(0, 2**32 - 1), draws=DRAWS)
    @example(seed=5489, draws=[623, "u", 625, "u*", 624])
    @settings(max_examples=20, deadline=None)
    def test_bulk_and_scalar_draws_follow_the_recurrence(self, seed, draws):
        got = _draw_all(MT19937(seed), draws)
        ref = ScalarMT(seed)
        assert _bits(got) == _bits([ref.next_uniform() for _ in got])

    def test_blocks_are_exact_and_continue_the_words(self):
        sizes = (1, 623, 624, 625, _JUMP)
        for seed in (0, 5489, 2**32 - 1):
            gen, ref = MT19937(seed), ScalarMT(seed)
            blocks = [gen._block(n) for n in sizes]
            assert [b.size for b in blocks] == list(sizes)
            assert _mt_words(np.concatenate(blocks)) == [
                ref.next_word() for _ in range(sum(sizes))]

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
        assert _mt_words([gen.next_uniform()]) == [ScalarMT(5489).next_word()]

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


_SPACE = st.text(alphabet=" \t", max_size=2)
_TEXT = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
# One line of a sample file, without its newline: a value, a blank line,
# a comment or a provenance header, whose tail may be empty.
SAMPLE_LINES = st.one_of(
    st.builds("{}{!r}{}".format, _SPACE,
              st.floats(min_value=0.0, max_value=math.nextafter(1.0, 0.0)), _SPACE),
    _SPACE,
    st.builds("{}#{}".format, _SPACE, _TEXT),
    st.builds("{}# rngaudit-sample v1{}".format, _SPACE, _TEXT),
)
BAD_LINES = st.sampled_from(["0.5x", "0.25 # note", "0.25 0.5", "1,5", "0x1p-3", "- 0.5"])


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            Sample(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            Sample(np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, 1.0, -0.25])
    def test_a_value_outside_0_1_is_rejected(self, bad):
        for make in (Sample, lambda v: Sample.adopt(v, "t")):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\)"):
                make(np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("edge", [-0.0, np.nextafter(1.0, 0.0)])
    def test_the_edges_of_0_1_are_accepted(self, edge):
        for make in (Sample, lambda v: Sample.adopt(v, "t")):
            values = make(np.array([0.5, edge, 0.0])).values
            assert _bits(values) == _bits([0.5, edge, 0.0])

    def test_a_callers_array_is_copied_and_a_fresh_one_adopted(self):
        mine = np.array([0.5, 0.25])
        assert Sample(mine).values is not mine
        assert mine.flags.writeable
        fresh = np.array([0.5, 0.25])
        assert Sample.adopt(fresh, "t").values is fresh
        assert not fresh.flags.writeable

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

    @given(lines=st.lists(SAMPLE_LINES, max_size=20),
           bad=st.none() | st.tuples(st.integers(0, 20), BAD_LINES),
           newline=st.sampled_from(["\n", "\r\n"]), last_newline=st.booleans())
    @example(lines=[], bad=(0, "0.25 0.5"), newline="\n", last_newline=True)
    @settings(max_examples=200)
    def test_load_matches_the_line_oracle(self, lines, bad, newline, last_newline,
                                          tmp_path_factory):
        # headers, comments and blank lines anywhere, CRLF, surrounding whitespace,
        # and at most one bad line: same values, bit for bit, or the same error
        if bad is not None:
            lines.insert(*bad)
        path = tmp_path_factory.mktemp("load") / "s.txt"
        path.write_bytes((newline.join(lines) + newline * last_newline).encode())

        def outcome(load):
            try:
                values, provenance = load(path)
            except ValueError as exc:
                return str(exc)
            return values.tobytes(), provenance

        def fast(p):
            sample = load_sample(p)
            return sample.values, sample.provenance

        assert outcome(fast) == outcome(load_sample_lines)
