"""Uniform pseudorandom generator families with exact integer state.

Three families are provided: the plain linear congruential generator
(LCG), a combined three-stream LCG built on the AS 183 constants of
Wichmann and Hill (1982), and a 32-bit Mersenne Twister used as the
reference generator.  Each family produces its stream in one place, a
fill method that writes the next values into an array of up to
STAT_BLOCK of them; a bulk draw fills its output that many values at a
time, so it holds no temporary that grows with the draw.  An LCG fill
continues from the last 4096 states of the stream (the seed alone at
first): it doubles the states it has by jumping each ahead from the one
1, 2, 4, ... steps before it, and from 4096 states on jumps each later
state ahead from the one 4096 steps before it (Knuth, TAOCP vol. 2,
3.2.1), so a later block takes one array op per 4096 states: in uint64
arrays for moduli up to 2**32, where the jump cannot overflow, and in
arrays of Python integers, which are arbitrary precision, above that.
A uniform is one exact integer state divided by the modulus, correctly
rounded, and always lies in [0, 1).  The Mersenne Twister is seeded by
this module's own ``init_genrand`` and draws its words from CPython's C
twister, ``random.Random``, loaded with that state.  Bulk and scalar
draws are both served from one buffer of block values in the base
class, so any interleaving of them reads the same stream.

The module also owns period analysis for the LCG family -- a
full-period test based on the classical increment/multiplier
divisibility conditions, plus a brute-force cycle finder that serves as
its independent check.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .stats import STAT_BLOCK

__all__ = [
    "FactorizationError",
    "LcgParams",
    "UniformGenerator",
    "Lcg",
    "WichmannHill",
    "MT19937",
    "Sample",
    "full_period_predicate",
    "brute_force_period",
    "make_generator",
    "WH_AS183_MODULI",
    "WH_AS183_MULTIPLIERS",
]

DEFAULT_FACTOR_BOUND = 10**7
GENERATOR_KINDS = ("lcg", "wh", "mt")


class FactorizationError(Exception):
    """Modulus could not be factored within the trial-division bound."""


# ---------------------------------------------------------------------------
# linear congruential generators


@dataclass(frozen=True)
class LcgParams:
    """Parameters of one linear congruential stream.

    The recurrence is ``state' = (multiplier * state + increment) % modulus``
    and each step's uniform is ``state' / modulus``.  Invariants enforced at
    construction: ``0 < multiplier < modulus``, ``0 <= increment < modulus``,
    ``0 <= seed < modulus``.
    """

    modulus: int
    multiplier: int
    increment: int = 0
    seed: int = 1

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 < self.multiplier < self.modulus:
            raise ValueError("multiplier must satisfy 0 < a < modulus")
        if not 0 <= self.increment < self.modulus:
            raise ValueError("increment must satisfy 0 <= c < modulus")
        if not 0 <= self.seed < self.modulus:
            raise ValueError("seed must satisfy 0 <= seed < modulus")

    @property
    def descriptor(self) -> str:
        return (
            f"lcg:m={self.modulus},a={self.multiplier},"
            f"c={self.increment},seed={self.seed}"
        )


# The longest jump of a bulk LCG draw: once this many states are filled,
# every later one is the state this many steps before it, jumped ahead in
# one array op.  An LCG keeps this many latest states to continue from, and
# a scalar draw on an empty buffer refills it with a block of this size.
_JUMP = 1 << 12


def _jump_constants(m: int, a: int, c: int, k: int) -> tuple[int, int]:
    """(A, C) with x_{t+k} = (A x_t + C) mod m: A = a**k and
    C = c (a**k - 1)/(a - 1), both mod m."""
    if a == 1:
        geometric = k
    else:
        geometric = (pow(a, k, (a - 1) * m) - 1) // (a - 1)
    return pow(a, k, m), c * geometric % m


def _lcg_states(m: int, a: int, c: int, tail, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n states after ``tail`` of y' = (a y + c) mod m, and the new tail.

    ``tail`` holds the latest states, oldest first: the seed alone at
    first, then the last up to _JUMP states of the stream.  States then
    double by jumping each ahead d = min(known, _JUMP) steps from the one
    d before it, so no array op touches more than _JUMP states, and from
    a full tail one op fills _JUMP states.  The array is uint64 for
    m <= 2**32, where A y + C <= (m-1)**2 + (m-1) < 2**64 is exact, and
    holds Python integers above that.  A power-of-two m reduces by the
    mask ``& (m - 1)``, any other by ``% m``: on either array, chosen
    once per call.
    """
    k = len(tail)
    wide = m > 1 << 32
    out = np.empty(k + n, dtype=object if wide else np.uint64)
    out[:k] = tail
    reduce, by = (operator.and_, m - 1) if m & (m - 1) == 0 else (operator.mod, m)
    if not wide:
        by = np.uint64(by)
    start = k
    while start < k + n:
        d = min(start, _JUMP)
        big_a, big_c = _jump_constants(m, a, c, d)
        if not wide:
            big_a, big_c = np.uint64(big_a), np.uint64(big_c)
        end = k + n if d == _JUMP else min(start + d, k + n)
        for lo in range(start, end, d):
            hi = min(lo + d, end)
            out[lo:hi] = reduce(big_a * out[lo - d : hi - d] + big_c, by)
        start = end
    return out[k:], out[-_JUMP:].copy()


def _uniforms(states: np.ndarray, m: int) -> np.ndarray:
    """states / m as float64: both exact, so each quotient is the correctly
    rounded one that the scalar ``state / m`` gives."""
    return (states / m).astype(np.float64, copy=False)


class UniformGenerator:
    """Base class for a deterministic stream of uniforms in [0, 1).

    A family supplies only ``_fill(out)``: the next ``out.size`` uniforms
    of its stream, in order, written into ``out``, for 1 <= out.size <=
    STAT_BLOCK.  ``generate`` and ``next_uniform`` both hand out values
    from one buffer, which a scalar draw refills with a whole block, so
    any interleaving of the two reads the one stream.  The family's own
    state therefore runs ahead of the values handed out.
    """

    # the buffer: values drawn but not yet handed out, in stream order.  The
    # shared empty iterator is only ever replaced per instance, never advanced.
    _pending = iter(())

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def next_uniform(self) -> float:
        """The next uniform of the stream, as a Python float."""
        try:
            return next(self._pending)
        except StopIteration:
            # _block directly, not generate: scalar refills are no bulk draw
            self._pending = iter(self._block(_JUMP).tolist())
            return next(self._pending)

    def generate(self, n: int) -> np.ndarray:
        """The next n uniforms of the stream, the same as n ``next_uniform``."""
        if n < 0:
            raise ValueError("count must be nonnegative")
        head = np.fromiter(itertools.islice(self._pending, n), dtype=np.float64)
        if head.size == n:
            return head
        block = self._block(n - head.size)
        return np.concatenate((head, block)) if head.size else block

    def _block(self, n: int) -> np.ndarray:
        """The next n uniforms, filled STAT_BLOCK at a time: no temporary of
        a family grows with n."""
        out = np.empty(n)
        for start in range(0, n, STAT_BLOCK):
            self._fill(out[start:start + STAT_BLOCK])
        return out

    def _fill(self, out: np.ndarray) -> None:
        raise NotImplementedError

    def sample(self, n: int) -> "Sample":
        return Sample.adopt(self.generate(n), self.descriptor)


class Lcg(UniformGenerator):
    """Plain linear congruential stream over exact integers."""

    def __init__(self, params: LcgParams):
        self.params = params
        self._tail = (params.seed,)

    @property
    def descriptor(self) -> str:
        return self.params.descriptor

    def _fill(self, out: np.ndarray) -> None:
        p = self.params
        states, self._tail = _lcg_states(p.modulus, p.multiplier, p.increment,
                                         self._tail, out.size)
        out[:] = _uniforms(states, p.modulus)


# ---------------------------------------------------------------------------
# the Wichmann-Hill combined generator

# Constants of algorithm AS 183 (Wichmann & Hill 1982, Applied Statistics 31).
WH_AS183_MODULI = (30269, 30307, 30323)
WH_AS183_MULTIPLIERS = (171, 172, 170)


class WichmannHill(UniformGenerator):
    """The AS 183 three-stream combined generator.

    Every zero-increment component steps as ``s' = (a * s) % m``; the
    output is the fractional part of the sum of the component uniforms
    ``s'/m``, added in component order.  The sum x lies in [0, 3), so
    x - floor(x) is exact (x - 1 and x - 2 are differences of doubles
    within a factor of two of each other) and equals ``x % 1.0``, +0.0
    at an integer included.
    """

    def __init__(self, seed1: int = 1, seed2: int = 1, seed3: int = 1):
        seeds = (int(seed1), int(seed2), int(seed3))
        for m, s in zip(WH_AS183_MODULI, seeds):
            # zero is absorbing for a zero-increment component
            if not 0 < s < m:
                raise ValueError("component seed must satisfy 0 < seed < m")
        self._tails = tuple((s,) for s in seeds)
        self._seeds = seeds

    @property
    def descriptor(self) -> str:
        s1, s2, s3 = self._seeds
        return f"wh:seed1={s1},seed2={s2},seed3={s3}"

    def _fill(self, out: np.ndarray) -> None:
        out[:] = 0.0
        tails = []
        for m, a, tail in zip(WH_AS183_MODULI, WH_AS183_MULTIPLIERS, self._tails):
            component, tail = _lcg_states(m, a, 0, tail, out.size)
            out += _uniforms(component, m)  # 0.0 + u1, then + u2, then + u3
            tails.append(tail)
        self._tails = tuple(tails)
        out -= np.floor(out)


# ---------------------------------------------------------------------------
# Mersenne Twister reference generator

_MT_N = 624
_MT_SEED_MULT = 1812433253


class MT19937(UniformGenerator):
    """Standard 32-bit Mersenne Twister with scalar integer seeding.

    Raw words map to uniforms as ``word / 2**32``, so exact 0.0 can occur.
    The 624 words of ``init_genrand`` are loaded into a ``random.Random``,
    whose C twister is the same MT19937 and draws the words from there.
    So the package never imports ``numpy.random``: importing it raises a
    process's peak resident memory by about 6 MB over a bare
    ``import numpy`` (27.6 to 33.8 MB VmHWM), more than the 5% that a
    whole ``sweep`` may move it.
    """

    def __init__(self, seed: int = 5489):
        if not 0 <= seed < 2**32:
            raise ValueError("seed must be a 32-bit nonnegative integer")
        self._seed = int(seed)
        state = [0] * _MT_N
        state[0] = self._seed
        for i in range(1, _MT_N):
            prev = state[i - 1]
            state[i] = (_MT_SEED_MULT * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
        # position 624: the first draw twists, as after init_genrand
        self._rng = random.Random(0)
        self._rng.setstate((3, (*state, _MT_N), None))

    @property
    def descriptor(self) -> str:
        return f"mt:seed={self._seed}"

    def _fill(self, out: np.ndarray) -> None:
        """The next words, as uniforms: randbytes packs whole 32-bit words
        little-endian, in stream order."""
        np.divide(np.frombuffer(self._rng.randbytes(4 * out.size), "<u4"), 2**32, out=out)


# ---------------------------------------------------------------------------
# period analysis

def _distinct_prime_factors(n: int, bound: int) -> list[int]:
    """Distinct primes dividing n, certified by trial division up to bound."""
    if n < 2:
        return []
    factors = []
    if n % 2 == 0:
        factors.append(2)
        while n % 2 == 0:
            n //= 2
    p = 3
    while p * p <= n and p <= bound:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        # n now has no factor <= min(bound, sqrt(original cofactor)); it is
        # certified prime when the loop ran past sqrt(n) or n <= bound**2.
        if p * p > n or n <= bound * bound:
            factors.append(n)
        else:
            raise FactorizationError(
                f"cofactor {n} exceeds the trial-division bound {bound}; "
                "cannot certify the factor list"
            )
    return factors


def full_period_predicate(
    params: LcgParams, factor_bound: int = DEFAULT_FACTOR_BOUND
) -> bool:
    """True iff the stream visits every residue, i.e. has period = modulus.

    Classical characterization (Knuth, TAOCP vol. 2): the increment must be
    coprime to the modulus, ``multiplier - 1`` must be divisible by every
    prime dividing the modulus, and by 4 whenever the modulus is.  The
    modulus is factored by trial division up to ``factor_bound``; when the
    factor list cannot be certified within the bound a FactorizationError
    is raised instead of guessing.
    """
    if factor_bound < 0:
        raise ValueError(f"trial-division bound must be >= 0, got {factor_bound}")
    m = params.modulus
    if math.gcd(params.increment, m) != 1:
        return False
    b = params.multiplier - 1
    for p in _distinct_prime_factors(m, factor_bound):
        if b % p != 0:
            return False
    if m % 4 == 0 and b % 4 != 0:
        return False
    return True


# The period walk compares this many states at a time.
_WALK_BLOCK = 1 << 18


def brute_force_period(params: LcgParams, cap: int) -> int | None:
    """Cycle length reached from the seed, found by direct enumeration.

    The walk x_0 = seed, x_1, ... first repeats a state at step mu + lam,
    where lam is the cycle length and mu the leading tail (nonzero only for
    degenerate multipliers, and not counted).  Returns lam when
    mu + lam <= ``cap``, and None when more than ``cap`` steps would be
    needed to see a repeat.

    Modulo each prime power p**e of m the map is a bijection when p does
    not divide a; when p divides a it multiplies the difference of any two
    states by a multiple of p, so after e steps all states agree.  The tail
    is therefore at most log2(m) steps long.  The walk steps bit_length(m)
    times to reach a state on the cycle, waits for that state to return,
    in blocks of jumped-ahead states, and then finds mu as the first t with
    x_t = x_{t + lam}, in at most mu + 1 scalar steps.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    m, a, c = params.modulus, params.multiplier, params.increment
    on_cycle = params.seed
    for _ in range(m.bit_length()):
        on_cycle = (a * on_cycle + c) % m
    tail = (on_cycle,)
    for done in range(0, cap, _WALK_BLOCK):
        states, tail = _lcg_states(m, a, c, tail, min(_WALK_BLOCK, cap - done))
        hits = np.flatnonzero(states == on_cycle)
        if hits.size:
            lam = done + int(hits[0]) + 1
            break
    else:
        return None
    big_a, big_c = _jump_constants(m, a, c, lam)
    x = params.seed
    z = (big_a * x + big_c) % m
    for _ in range(cap - lam + 1):  # t = 0 .. cap - lam
        if x == z:
            return lam
        x, z = (a * x + c) % m, (a * z + c) % m
    return None


# ---------------------------------------------------------------------------
# samples and their file format

@dataclass
class Sample:
    """An ordered, immutable sequence of uniforms in [0, 1) plus provenance."""

    values: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        self.values = _checked(v.copy() if v is self.values else v)

    @classmethod
    def adopt(cls, values: np.ndarray, provenance: str) -> "Sample":
        """A sample over ``values``, a fresh float64 array that no one else
        holds: checked and made read-only, not copied."""
        sample = cls.__new__(cls)
        sample.values, sample.provenance = _checked(values), provenance
        return sample

    def __len__(self) -> int:
        return int(self.values.size)


def _checked(v: np.ndarray) -> np.ndarray:
    """``v``, read-only, once it is found one-dimensional and in [0, 1).
    min and max walk it without a temporary, and a NaN makes both NaN."""
    if v.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if v.size and not (v.min() >= 0.0 and v.max() < 1.0):
        raise ValueError("sample values must lie in [0, 1)")
    v.setflags(write=False)
    return v


# ---------------------------------------------------------------------------
# descriptors

def _parse_int_fields(kind: str, text: str, keys: tuple[str, ...]) -> dict[str, int]:
    fields: dict[str, int] = {}
    if text:
        for chunk in text.split(","):
            key, sep, value = chunk.partition("=")
            key = key.strip()
            if not sep or key not in keys:
                raise ValueError(f"bad field {chunk!r} in {kind!r} descriptor")
            if key in fields:
                raise ValueError(f"duplicate field {key!r} in {kind!r} descriptor")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"field {key!r} in {kind!r} descriptor is not an integer"
                ) from None
    return fields


def make_generator(descriptor: str, seed: int | None = None) -> UniformGenerator:
    """Build a generator from its text descriptor.

    Understood formats::

        lcg:m=<int>,a=<int>,c=<int>,seed=<int>
        wh:seed1=<int>,seed2=<int>,seed3=<int>
        mt:seed=<int>

    ``seed`` overrides the descriptor's own seed field(s); for ``wh`` the
    single integer is folded into each component's range.  Seed fields may
    then be omitted from the descriptor text.
    """
    kind, _, rest = descriptor.strip().partition(":")
    kind = kind.strip()
    if kind == "lcg":
        fields = _parse_int_fields(kind, rest, ("m", "a", "c", "seed"))
        for key in ("m", "a", "c"):
            if key not in fields:
                raise ValueError(f"lcg descriptor is missing field {key!r}")
        if seed is None and "seed" not in fields:
            raise ValueError("lcg descriptor has no seed and none was supplied")
        use_seed = fields["seed"] if seed is None else seed
        return Lcg(LcgParams(fields["m"], fields["a"], fields["c"], use_seed))
    if kind == "wh":
        fields = _parse_int_fields(kind, rest, ("seed1", "seed2", "seed3"))
        if seed is not None:
            if seed < 0:
                raise ValueError("seed must be nonnegative")
            seeds = tuple(seed % (m - 1) + 1 for m in WH_AS183_MODULI)
        else:
            missing = [k for k in ("seed1", "seed2", "seed3") if k not in fields]
            if missing:
                raise ValueError(f"wh descriptor is missing {missing}")
            seeds = (fields["seed1"], fields["seed2"], fields["seed3"])
        return WichmannHill(*seeds)
    if kind == "mt":
        fields = _parse_int_fields(kind, rest, ("seed",))
        if seed is None and "seed" not in fields:
            raise ValueError("mt descriptor has no seed and none was supplied")
        return MT19937(fields["seed"] if seed is None else seed)
    raise ValueError(
        f"unknown generator kind {kind!r} (known kinds: {', '.join(GENERATOR_KINDS)})"
    )
