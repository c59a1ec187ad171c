"""Seed-sensitivity harness around a small Monte Carlo valuation model.

The model is deliberately tiny: geometric Brownian motion paths drive
the discounted expectation of a put-style guarantee payoff
``max(strike_ratio - terminal, 0)``.  It exists to make generator and
seed effects visible, not to price anything real: the closed form is
known (tests pin the estimator to it), so any dispersion across seeds
beyond Monte Carlo noise indicts the generator, not the model.

Normals come from the Box-Muller transform fed by generator uniforms in
stream order, so the entire simulation is a deterministic function of
(descriptor, seed, config).  Paths are simulated a chunk at a time from
bulk draws of uniforms, but every logarithm and exponential is the math
module's (libm's) on one value, numpy's float64 cosine and sine call
libm's once per value, and each path sums its steps in order, so the
estimates are bit for bit those of a scalar loop that draws one uniform
at a time.  (numpy's SIMD log and exp differ from libm's in the last
bit, so they are not used.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .generators import UniformGenerator, make_generator
from .stats import TestResult

__all__ = [
    "ToyModelConfig",
    "GaussianStream",
    "mc_estimate",
    "seed_sweep",
]

TWO_PI = 2.0 * math.pi

# Paths are simulated in chunks of about this many normals: enough that the
# per-chunk overhead is small, few enough that memory stays flat in the path
# count.
_CHUNK_NORMALS = 4096


@dataclass(frozen=True)
class ToyModelConfig:
    """Configuration of the toy guarantee model.

    Rates are per step; a path is ``horizon_steps`` lognormal steps of
    drift ``drift`` and volatility ``volatility``, discounted back at
    ``discount_rate``.  The guarantee strike is ``strike_ratio`` times
    the initial level (which is 1).

    The defaults describe a 93% guarantee over 80 periods at 1.6%
    per-period volatility -- long enough that each path consumes a
    sizeable stretch of a small-period generator's output, which is
    where seed effects become visible.
    """

    paths: int = 1000
    horizon_steps: int = 80
    drift: float = 0.0002
    volatility: float = 0.016
    discount_rate: float = 0.0002
    strike_ratio: float = 0.93

    def __post_init__(self):
        # one path has no standard error, so no seed effect can be judged
        if self.paths < 2:
            raise ValueError("paths must be >= 2")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        # nan would slip past every comparison below and leave null estimates
        for name in ("drift", "volatility", "discount_rate", "strike_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.volatility < 0:
            raise ValueError("volatility must be nonnegative")
        if self.strike_ratio < 0:
            raise ValueError("strike_ratio must be nonnegative")


class GaussianStream:
    """Standard normals drawn pairwise from a uniform generator.

    Uniforms are read in stream order as pairs (u1, u2), and each pair
    gives r cos(2 pi u2) and then r sin(2 pi u2), r = sqrt(-2 ln u1).  A
    zero uniform arriving in the u1 slot is skipped (and counted in
    ``zero_skips``) before drawing its replacement; both normals of each
    pair are handed out before the next pair is drawn, and a pair's
    second normal waits for the next call.

    ``normals(n)`` draws the uniforms of all its pairs with one
    ``generate`` call; each zero it skips is replaced by drawing more
    uniforms in further ``generate`` calls, until every pair is filled.
    ``log`` is the math module's on each value; ``cos`` and ``sin`` are
    numpy's float64 ufuncs, which call libm's on each value and so agree
    with the math module's bit for bit.  Every normal is therefore the
    one a scalar transform of its pair gives.
    """

    def __init__(self, generator: UniformGenerator):
        self.generator = generator
        self.zero_skips = 0
        self._spare: float | None = None

    def normals(self, n: int) -> np.ndarray:
        """The next n normals of the stream."""
        out = np.empty(n, dtype=np.float64)
        done = 0
        if n and self._spare is not None:
            out[0], self._spare, done = self._spare, None, 1
        pairs = -(-(n - done) // 2)
        if pairs:
            u1, u2 = self._uniform_pairs(pairs)
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
            theta = TWO_PI * u2
            z = np.empty((pairs, 2), dtype=np.float64)
            z[:, 0] = r * np.cos(theta)
            z[:, 1] = r * np.sin(theta)
            z = z.ravel()
            out[done:] = z[: n - done]
            if z.size > n - done:
                self._spare = float(z[-1])
        return out

    def _uniform_pairs(self, pairs: int) -> tuple[np.ndarray, np.ndarray]:
        """The u1 and u2 values of the next ``pairs`` pairs.  A zero is kept
        unless it falls in a u1 slot, and each zero skipped costs one more
        uniform, exactly as pairwise scalar draws would read the stream."""
        pieces = []
        kept = 0
        while kept < 2 * pairs:
            u = self.generator.generate(2 * pairs - kept)
            skipped = []
            for j in np.flatnonzero(u == 0.0).tolist():
                if (kept + j - len(skipped)) % 2 == 0:
                    skipped.append(j)
            if skipped:
                u = np.delete(u, skipped)
                self.zero_skips += len(skipped)
            pieces.append(u)
            kept += u.size
        u = np.concatenate(pieces)
        return u[0::2], u[1::2]


def _simulate_payoffs(stream: GaussianStream, config: ToyModelConfig, paths: int) -> np.ndarray:
    """Undiscounted guarantee payoffs of ``paths`` fresh paths, in order.

    Paths are simulated in chunks of about _CHUNK_NORMALS normals.  The cumulative
    sum along a path adds its steps one by one, in order, as a scalar loop
    would, and the exponential is libm's, so each payoff is the scalar one.
    """
    log_drift = config.drift - 0.5 * config.volatility**2
    vol = config.volatility
    steps = config.horizon_steps
    chunk = max(1, _CHUNK_NORMALS // steps)
    out = np.empty(paths, dtype=np.float64)
    for start in range(0, paths, chunk):
        k = min(chunk, paths - start)
        z = stream.normals(k * steps).reshape(k, steps)
        log_s = np.cumsum(log_drift + vol * z, axis=1)[:, -1]
        terminal = np.fromiter(map(math.exp, log_s.tolist()), np.float64, k)
        out[start : start + k] = np.maximum(config.strike_ratio - terminal, 0.0)
    return out


def mc_estimate(
    descriptor: str, seed: int, config: ToyModelConfig | None = None
) -> tuple[float, float]:
    """Monte Carlo guarantee value and its standard error.

    Deterministic: the same (descriptor, seed, config) triple always
    produces the bit-identical pair.  A config under which a level, the
    discount factor or a payoff moment overflows a float raises ValueError.
    """
    if config is None:
        config = ToyModelConfig()
    stream = GaussianStream(make_generator(descriptor, seed=seed))
    # math.exp raises OverflowError; numpy, its scalars included, raises
    # FloatingPointError under this errstate instead of returning inf
    try:
        with np.errstate(over="raise"):
            payoffs = _simulate_payoffs(stream, config, config.paths)
            disc = np.float64(math.exp(-config.discount_rate * config.horizon_steps))
            est = disc * payoffs.mean()
            se = disc * payoffs.std(ddof=1) / math.sqrt(config.paths)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"the model overflows a float (drift={config.drift}, "
            f"volatility={config.volatility}, discount_rate={config.discount_rate}, "
            f"strike_ratio={config.strike_ratio}, horizon_steps={config.horizon_steps})"
        ) from None
    return float(est), float(se)


def seed_sweep(descriptor: str, seeds, config: ToyModelConfig | None = None) -> TestResult:
    """Run the model once per seed: the ``seed-effect`` record.

    delta[i, j] = (estimate_i - estimate_j) / estimate_j in percent.  The
    statistic is the largest |delta| off the diagonal.  The verdict is
    ``reject`` when the seed-effect flag trips: some pair differs by more
    than three times its pooled standard error -- dispersion Monte Carlo
    noise alone would essentially never produce -- and ``pass`` otherwise.
    ``detail`` holds the per-seed estimates, the delta table, the pair of
    seeds with the largest |delta|, the flag and a note on sampling noise.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if config is None:
        config = ToyModelConfig()
    estimates, ses = zip(*(mc_estimate(descriptor, seed, config) for seed in seeds))
    delta = _delta_pct(estimates)
    best, (i, j), flag = _largest_delta(delta, estimates, ses)
    est, se = np.asarray(estimates), np.asarray(ses)
    if np.all(est != 0):
        rel_se = float(np.mean(se / np.abs(est))) * 100
        noise = (f"mean Monte Carlo error {rel_se:.2f}% of the estimate. Deltas within "
                 f"~{3 * math.sqrt(2) * rel_se:.2f}%")
    else:
        # no error is relative to a zero estimate: state it in the estimate's units
        mean_se = float(np.mean(se))
        noise = (f"mean Monte Carlo error {mean_se:.3g} (absolute, as an estimate is 0). "
                 f"Differences within ~{3 * math.sqrt(2) * mean_se:.3g}")
    detail = {
        "descriptor": descriptor,
        "config": asdict(config),
        "per_seed": [
            {"seed": s, "estimate": e, "standard_error": err}
            for s, e, err in zip(seeds, estimates, ses)
        ],
        "delta_pct": delta.tolist(),
        "max_abs_relative_delta": best,
        "max_pair": [seeds[i], seeds[j]],
        "seed_effect_flag": flag,
        "sample_size_note": (f"{config.paths} paths per seed; {noise} "
                             "are consistent with sampling noise alone."),
    }
    return TestResult("seed-effect", best, None, None, detail, "reject" if flag else "pass")


def _largest_delta(delta: np.ndarray, estimates, ses) -> tuple[float, tuple[int, int], bool]:
    """(largest |delta| off the diagonal, its (row, column), seed-effect flag).

    The first largest wins, row by row; nan is never a maximum, and when
    none is positive (0, 0) names the first seed twice.  The flag trips
    when some pair differs by more than 3 pooled standard errors.  The
    table is read one row at a time, so nothing beyond a row of it is
    allocated.
    """
    est = np.asarray(estimates)
    best, pair = 0.0, (0, 0)
    flag = False
    for i, se_i in enumerate(ses):
        d = np.abs(delta[i])
        d[i] = 0.0
        d = np.where(d > 0.0, d, 0.0)
        j = int(np.argmax(d))
        if d[j] > best:
            best, pair = float(d[j]), (i, j)
        if not flag:
            # math.hypot per ordered pair, as the pair loop did: np.hypot
            # can differ from it in the last bit, and nothing guarantees
            # hypot(a, b) == hypot(b, a) bit for bit.  A seed never
            # differs from itself, so the diagonal cannot trip the flag.
            pooled = map(math.hypot, itertools.repeat(se_i), ses)
            pooled = np.fromiter(pooled, np.float64, len(ses))
            flag = bool(np.any(np.abs(est[i] - est) > 3.0 * pooled))
    return best, pair, flag


def _delta_pct(estimates) -> np.ndarray:
    """delta[i, j] = (estimate_i - estimate_j) / estimate_j in percent; the
    column of a zero estimate_j holds 0 where estimate_i is zero too, else inf."""
    est = np.asarray(estimates, dtype=np.float64)
    # in place, so the table is the only n x n array
    delta = est[:, None] - est[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta /= est
    delta *= 100.0
    zero = est == 0.0
    delta[:, zero] = np.where(zero, 0.0, np.inf)[:, None]
    return delta
