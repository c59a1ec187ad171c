"""Uniform pseudorandom generator families with exact integer state.

Three families are provided: the plain linear congruential generator
(LCG), a combined three-stream LCG built on the AS 183 constants of
Wichmann and Hill (1982), and a 32-bit Mersenne Twister used as the
reference generator.  Each family produces its stream in one place, a
block method: an LCG steps once from its state, doubles the states it
has by jumping each ahead from the one 1, 2, 4, ... steps before it, and
from 4096 states on jumps each later state ahead from the one 4096
steps before it (Knuth, TAOCP vol. 2, 3.2.1): in uint64 arrays for
moduli up to 2**32, where the jump cannot overflow, and in arrays of
Python integers, which are arbitrary precision, above that.  A uniform
is one exact integer state divided by the modulus, correctly rounded,
and always lies in [0, 1).  Bulk and scalar draws are both served from
one buffer of block values in the base class, so any interleaving of
them reads the same stream.

The module also owns period analysis for the LCG family -- a
full-period test based on the classical increment/multiplier
divisibility conditions, plus a brute-force cycle finder that serves as
its independent check -- and the plain-text sample file format used by
the command line tools.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

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
    "save_sample",
    "sample_lines",
    "load_sample",
    "WH_AS183_MODULI",
    "WH_AS183_MULTIPLIERS",
]

DEFAULT_FACTOR_BOUND = 10**7
GENERATOR_KINDS = ("lcg", "wh", "mt")
SAMPLE_HEADER_PREFIX = "# rngaudit-sample v1"


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

    def with_seed(self, seed: int) -> "LcgParams":
        return LcgParams(self.modulus, self.multiplier, self.increment, seed)


# The longest jump of a bulk LCG draw: once this many states are filled,
# every later one is the state this many steps before it, jumped ahead in
# one array op.  A scalar draw on an empty buffer refills it with a block
# of this size.
_JUMP = 1 << 12


def _jump_constants(m: int, a: int, c: int, k: int) -> tuple[int, int]:
    """(A, C) with x_{t+k} = (A x_t + C) mod m: A = a**k and
    C = c (a**k - 1)/(a - 1), both mod m."""
    if a == 1:
        geometric = k
    else:
        geometric = (pow(a, k, (a - 1) * m) - 1) // (a - 1)
    return pow(a, k, m), c * geometric % m


def _lcg_states(m: int, a: int, c: int, y: int, n: int) -> tuple[np.ndarray, int]:
    """The n states after y of y' = (a y + c) mod m, and the last of them
    (y itself when n = 0).

    The first state is one step from y; the states filled so far then
    double by jumping each ahead d = min(filled, _JUMP) steps from the one
    d before it, so no array op touches more than _JUMP states.  The array
    is uint64 for m <= 2**32, where A y + C <= (m-1)**2 + (m-1) < 2**64 is
    exact, and holds Python integers above that.
    """
    out = np.empty(n, dtype=np.uint64 if m <= 1 << 32 else object)
    if n == 0:
        return out, y
    out[0] = (a * y + c) % m
    start = 1
    while start < n:
        d = min(start, _JUMP)
        big_a, big_c = _jump_constants(m, a, c, d)
        mod = m
        if out.dtype != object:
            big_a, big_c, mod = np.uint64(big_a), np.uint64(big_c), np.uint64(m)
        end = n if d == _JUMP else min(start + d, n)
        for lo in range(start, end, d):
            hi = min(lo + d, end)
            out[lo:hi] = (big_a * out[lo - d : hi - d] + big_c) % mod
        start = end
    return out, int(out[-1])


def _uniforms(states: np.ndarray, m: int) -> np.ndarray:
    """states / m as float64: both exact, so each quotient is the correctly
    rounded one that the scalar ``state / m`` gives."""
    return (states / m).astype(np.float64, copy=False)


class UniformGenerator:
    """Base class for a deterministic stream of uniforms in [0, 1).

    A family supplies only ``_block(n)``: at least n further uniforms of
    its stream, in order, for n >= 1.  ``generate`` and ``next_uniform``
    both hand out values from one buffer, which keeps whatever a block
    gave beyond the request, so any interleaving of the two reads the one
    stream.  The family's own state therefore runs ahead of the values
    handed out.
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
        need = n - head.size
        block = self._block(need)
        self._pending = iter(block[need:].tolist())
        return np.concatenate((head, block[:need])) if head.size else block[:need]

    def _block(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int) -> "Sample":
        return Sample(self.generate(n), provenance=self.descriptor)


class Lcg(UniformGenerator):
    """Plain linear congruential stream over exact integers."""

    def __init__(self, params: LcgParams):
        self.params = params
        self._state = params.seed

    @property
    def descriptor(self) -> str:
        return self.params.descriptor

    def _block(self, n: int) -> np.ndarray:
        p = self.params
        states, self._state = _lcg_states(p.modulus, p.multiplier, p.increment,
                                          self._state, n)
        return _uniforms(states, p.modulus)


# ---------------------------------------------------------------------------
# the Wichmann-Hill combined generator

# Constants of algorithm AS 183 (Wichmann & Hill 1982, Applied Statistics 31).
WH_AS183_MODULI = (30269, 30307, 30323)
WH_AS183_MULTIPLIERS = (171, 172, 170)


class WichmannHill(UniformGenerator):
    """The AS 183 three-stream combined generator.

    Every zero-increment component steps as ``s' = (a * s) % m``; the
    output is the fractional part of the sum of the component uniforms
    ``s'/m``, added in component order.
    """

    def __init__(self, seed1: int = 1, seed2: int = 1, seed3: int = 1):
        seeds = (int(seed1), int(seed2), int(seed3))
        for m, s in zip(WH_AS183_MODULI, seeds):
            # zero is absorbing for a zero-increment component
            if not 0 < s < m:
                raise ValueError("component seed must satisfy 0 < seed < m")
        self._states = seeds
        self._seeds = seeds

    @property
    def descriptor(self) -> str:
        s1, s2, s3 = self._seeds
        return f"wh:seed1={s1},seed2={s2},seed3={s3}"

    def _block(self, n: int) -> np.ndarray:
        total = np.zeros(n)
        states = []
        for m, a, s in zip(WH_AS183_MODULI, WH_AS183_MULTIPLIERS, self._states):
            component, last = _lcg_states(m, a, 0, s, n)
            total += _uniforms(component, m)  # 0.0 + u1, then + u2, then + u3
            states.append(last)
        self._states = tuple(states)
        return np.remainder(total, 1.0, out=total)


# ---------------------------------------------------------------------------
# Mersenne Twister reference generator

_MT_N = 624
_MT_M = 397
_MT_MATRIX_A = 0x9908B0DF
_MT_UPPER = 0x80000000
_MT_LOWER = 0x7FFFFFFF
_MT_SEED_MULT = 1812433253
_TWO32 = 4294967296.0


class MT19937(UniformGenerator):
    """Standard 32-bit Mersenne Twister with scalar integer seeding.

    Raw words map to uniforms as ``word / 2**32``, so exact 0.0 can occur.
    The twist is applied one 624-word block at a time with numpy, which
    keeps bulk generation fast without changing the output sequence.
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
        self._state = np.array(state, dtype=np.uint32)

    @property
    def descriptor(self) -> str:
        return f"mt:seed={self._seed}"

    def _next_block(self) -> np.ndarray:
        """Twist the state and return the 624 tempered output words."""
        mt = self._state
        nxt = np.empty(_MT_N, dtype=np.uint32)
        y = (mt & np.uint32(_MT_UPPER)) | (
            np.concatenate((mt[1:], mt[:1])) & np.uint32(_MT_LOWER)
        )
        toggle = np.where(
            (y & np.uint32(1)).astype(bool), np.uint32(_MT_MATRIX_A), np.uint32(0)
        )
        core = (y >> np.uint32(1)) ^ toggle
        # entries 0..622 use the pre-twist words mt[k] and mt[k+1]; the
        # mt[k + M (mod N)] partner crosses into already-updated territory
        # for k >= N - M, hence the three slices.
        nxt[: _MT_N - _MT_M] = mt[_MT_M :] ^ core[: _MT_N - _MT_M]
        nxt[_MT_N - _MT_M : 2 * (_MT_N - _MT_M)] = (
            nxt[: _MT_N - _MT_M] ^ core[_MT_N - _MT_M : 2 * (_MT_N - _MT_M)]
        )
        nxt[2 * (_MT_N - _MT_M) : _MT_N - 1] = (
            nxt[_MT_N - _MT_M : _MT_M - 1] ^ core[2 * (_MT_N - _MT_M) : _MT_N - 1]
        )
        y_last = (int(mt[_MT_N - 1]) & _MT_UPPER) | (int(nxt[0]) & _MT_LOWER)
        last = int(nxt[_MT_M - 1]) ^ (y_last >> 1)
        if y_last & 1:
            last ^= _MT_MATRIX_A
        nxt[_MT_N - 1] = np.uint32(last)
        self._state = nxt

        w = nxt.copy()
        w ^= w >> np.uint32(11)
        w ^= (w << np.uint32(7)) & np.uint32(0x9D2C5680)
        w ^= (w << np.uint32(15)) & np.uint32(0xEFC60000)
        w ^= w >> np.uint32(18)
        return w

    def _block(self, n: int) -> np.ndarray:
        """ceil(n / 624) whole twists, as uniforms."""
        return np.concatenate([self._next_block() for _ in range(-(-n // _MT_N))]) / _TWO32


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
    y = on_cycle
    for done in range(0, cap, _WALK_BLOCK):
        states, y = _lcg_states(m, a, c, y, min(_WALK_BLOCK, cap - done))
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
        if v.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if v.size and not (np.all(v >= 0.0) and np.all(v < 1.0)):
            raise ValueError("sample values must lie in [0, 1)")
        v = v.copy() if v is self.values else v
        v.setflags(write=False)
        self.values = v

    def __len__(self) -> int:
        return int(self.values.size)


def _atomic_write_text(path, chunks) -> None:
    """Write text via a temp file and rename, so readers never see halves.

    ``chunks`` is one str or an iterable of str pieces, written in order,
    so a large file never has to exist as one string.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rngaudit-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Text writers convert this many values to Python floats at a time; a
# whole large array at once would hold a second copy of it next to its lines.
_TEXT_BLOCK = 1 << 12


def sample_lines(sample: Sample):
    """The sample file's text in pieces: the provenance header line, then
    one decimal value per line, _TEXT_BLOCK lines per piece."""
    yield f"{SAMPLE_HEADER_PREFIX} {sample.provenance}\n"
    values = sample.values
    for start in range(0, values.size, _TEXT_BLOCK):
        yield "".join([f"{v!r}\n" for v in values[start:start + _TEXT_BLOCK].tolist()])


def save_sample(sample: Sample, path) -> None:
    """Write one decimal value per line, preceded by a provenance header."""
    _atomic_write_text(path, sample_lines(sample))


def load_sample(path) -> Sample:
    """Read a sample file; '#' comment lines are tolerated and skipped."""
    provenance = "external file"
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(SAMPLE_HEADER_PREFIX):
                    tail = line[len(SAMPLE_HEADER_PREFIX) :].strip()
                    if tail:
                        provenance = tail
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
    return Sample(np.asarray(values, dtype=np.float64), provenance=provenance)


# ---------------------------------------------------------------------------
# descriptors

def _parse_int_fields(kind: str, text: str, required: tuple[str, ...],
                      optional: tuple[str, ...] = ()) -> dict[str, int]:
    fields: dict[str, int] = {}
    if text:
        for chunk in text.split(","):
            key, sep, value = chunk.partition("=")
            key = key.strip()
            if not sep or key not in required + optional:
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
