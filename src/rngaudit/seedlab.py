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
bulk draws of uniforms, but every logarithm, sine, cosine and
exponential is the math module's (libm's) on one value, and each path
sums its steps in order, so the estimates are bit for bit those of a
scalar loop that draws one uniform at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .generators import UniformGenerator, make_generator

__all__ = [
    "ToyModelConfig",
    "SweepReport",
    "uniform_to_gaussian",
    "GaussianStream",
    "mc_estimate",
    "seed_sweep",
    "convergence_report",
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
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if self.volatility < 0:
            raise ValueError("volatility must be nonnegative")
        if self.strike_ratio < 0:
            raise ValueError("strike_ratio must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "paths": self.paths,
            "horizon_steps": self.horizon_steps,
            "drift": self.drift,
            "volatility": self.volatility,
            "discount_rate": self.discount_rate,
            "strike_ratio": self.strike_ratio,
        }


def uniform_to_gaussian(u1: float, u2: float) -> tuple[float, float]:
    """Box-Muller transform of one uniform pair into two standard normals.

    Requires u1 in (0, 1) -- the log has a singularity at zero -- and
    u2 in [0, 1).
    """
    if not 0.0 < u1 < 1.0:
        raise ValueError("u1 must lie strictly inside (0, 1)")
    if not 0.0 <= u2 < 1.0:
        raise ValueError("u2 must lie in [0, 1)")
    r = math.sqrt(-2.0 * math.log(u1))
    theta = TWO_PI * u2
    return r * math.cos(theta), r * math.sin(theta)


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
    It applies the libm ``log``, ``cos`` and ``sin`` of the math module to
    each value, so every normal is bit for bit the one the scalar
    transform ``uniform_to_gaussian`` gives for its pair.
    """

    def __init__(self, generator: UniformGenerator):
        self.generator = generator
        self.zero_skips = 0
        self._spare: float | None = None

    def next_gaussian(self) -> float:
        return float(self.normals(1)[0])

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
            theta = (TWO_PI * u2).tolist()
            z = np.empty((pairs, 2), dtype=np.float64)
            z[:, 0] = r * np.fromiter(map(math.cos, theta), np.float64, pairs)
            z[:, 1] = r * np.fromiter(map(math.sin, theta), np.float64, pairs)
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


def _estimate_from(payoffs: np.ndarray, config: ToyModelConfig) -> tuple[float, float]:
    disc = math.exp(-config.discount_rate * config.horizon_steps)
    estimate = disc * float(payoffs.mean())
    if payoffs.size > 1:
        se = disc * float(payoffs.std(ddof=1)) / math.sqrt(payoffs.size)
    else:
        se = 0.0
    return estimate, se


def mc_estimate(
    descriptor: str, seed: int, config: ToyModelConfig | None = None
) -> tuple[float, float]:
    """Monte Carlo guarantee value and its standard error.

    Deterministic: the same (descriptor, seed, config) triple always
    produces the bit-identical pair.
    """
    if config is None:
        config = ToyModelConfig()
    stream = GaussianStream(make_generator(descriptor, seed=seed))
    payoffs = _simulate_payoffs(stream, config, config.paths)
    return _estimate_from(payoffs, config)


@dataclass
class SweepReport:
    """Per-seed estimates plus the pairwise relative-delta table."""

    descriptor: str
    config: ToyModelConfig
    seeds: list[int]
    estimates: list[float]
    standard_errors: list[float]
    delta_pct: np.ndarray
    max_abs_relative_delta: float = field(init=False)
    max_pair: tuple[int, int] = field(init=False)
    seed_effect_flag: bool = field(init=False)
    sample_size_note: str = field(init=False)

    def __post_init__(self):
        est = np.asarray(self.estimates)
        se = np.asarray(self.standard_errors)
        ses = se.tolist()
        best, (bi, bj) = 0.0, (0, 0)
        flag = False
        # one row at a time, so nothing beyond a row of the table is allocated
        for i, se_i in enumerate(ses):
            # the first largest |delta| off the diagonal, row by row; nan is
            # never a maximum, and when none is positive (0, 0) names the
            # first seed twice
            d = np.abs(self.delta_pct[i])
            d[i] = 0.0
            d = np.where(d > 0.0, d, 0.0)
            j = int(np.argmax(d))
            if d[j] > best:
                best, (bi, bj) = float(d[j]), (i, j)
            if not flag:
                # math.hypot per ordered pair, as the pair loop did: np.hypot
                # can differ from it in the last bit, and nothing guarantees
                # hypot(a, b) == hypot(b, a) bit for bit.  A seed never
                # differs from itself, so the diagonal cannot trip the flag.
                pooled = map(math.hypot, itertools.repeat(se_i), ses)
                pooled = np.fromiter(pooled, np.float64, len(ses))
                flag = bool(np.any(np.abs(est[i] - est) > 3.0 * pooled))
        self.max_abs_relative_delta = best
        self.max_pair = (self.seeds[bi], self.seeds[bj])
        self.seed_effect_flag = flag
        rel_se = float(np.mean(se / np.abs(est))) * 100 if np.all(est != 0) else float("nan")
        self.sample_size_note = (
            f"{self.config.paths} paths per seed; mean Monte Carlo error "
            f"{rel_se:.2f}% of the estimate. Deltas within ~{3 * math.sqrt(2) * rel_se:.2f}% "
            "are consistent with sampling noise alone."
        )

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "config": self.config.to_dict(),
            "per_seed": [
                {"seed": s, "estimate": float(e), "standard_error": float(se)}
                for s, e, se in zip(self.seeds, self.estimates, self.standard_errors)
            ],
            "delta_pct": [[float(x) for x in row] for row in self.delta_pct],
            "max_abs_relative_delta": self.max_abs_relative_delta,
            "max_pair": list(self.max_pair),
            "seed_effect_flag": self.seed_effect_flag,
            "sample_size_note": self.sample_size_note,
        }

    def to_text_table(self) -> str:
        lines = [
            f"Seed sweep: {self.descriptor} "
            f"(paths={self.config.paths}, steps={self.config.horizon_steps})",
            "",
            f"{'seed':>10s}  {'estimate':>14s}  {'std.error':>12s}",
        ]
        for seed, est, se in zip(self.seeds, self.estimates, self.standard_errors):
            lines.append(f"{seed:>10d}  {est:>14.8f}  {se:>12.8f}")
        i, j = self.max_pair
        lines += [
            "",
            f"Largest relative difference (seed {i} vs seed {j}):",
            f"  Delta estimate [%]   {self.delta_pct[self.seeds.index(i), self.seeds.index(j)]:+.2f}",
            f"Seed-effect flag: {'TRIPPED' if self.seed_effect_flag else 'not tripped'}"
            " (threshold: 3 x pooled standard error)",
            self.sample_size_note,
        ]
        return "\n".join(lines)


def seed_sweep(
    descriptor: str, seeds, config: ToyModelConfig | None = None
) -> SweepReport:
    """Run the model once per seed and tabulate pairwise relative deltas.

    delta[i, j] = (estimate_i - estimate_j) / estimate_j in percent.  The
    seed-effect flag trips when any pair differs by more than three times
    its pooled standard error -- dispersion Monte Carlo noise alone would
    essentially never produce.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if config is None:
        config = ToyModelConfig()
    estimates, ses = [], []
    for seed in seeds:
        est, se = mc_estimate(descriptor, seed, config)
        estimates.append(est)
        ses.append(se)
    return SweepReport(descriptor, config, seeds, estimates, ses, _delta_pct(estimates))


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


def convergence_report(
    descriptor: str,
    seed: int,
    path_schedule,
    config: ToyModelConfig | None = None,
) -> list[tuple[int, float, float]]:
    """Estimates at increasing path counts over one shared stream prefix.

    The schedule must be non-decreasing; because every row reuses the
    same stream prefix, the row at n paths is bit-identical to
    ``mc_estimate`` run with ``paths=n``.
    """
    schedule = [int(p) for p in path_schedule]
    if not schedule:
        raise ValueError("empty path schedule")
    if any(p < 1 for p in schedule):
        raise ValueError("path counts must be >= 1")
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("path schedule must be non-decreasing")
    if config is None:
        config = ToyModelConfig()
    stream = GaussianStream(make_generator(descriptor, seed=seed))
    payoffs = np.empty(schedule[-1], dtype=np.float64)
    done = 0
    rows = []
    for target in schedule:
        if target > done:
            payoffs[done:target] = _simulate_payoffs(stream, config, target - done)
            done = target
        est, se = _estimate_from(payoffs[:target], config)
        rows.append((target, est, se))
    return rows
