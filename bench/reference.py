"""Reference streams and statistics computed apart from rngaudit.

Nothing here imports rngaudit.  The streams come from numpy's legacy
Mersenne Twister and from exact-integer LCG recurrences; the p-values
come from scipy.  The benchmark's checks compare the program's outputs
with these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sst

WH_MODULI = (30269, 30307, 30323)
WH_MULTIPLIERS = (171, 172, 170)
_BLOCK = 4096


def mt_stream(seed: int, n: int) -> np.ndarray:
    """32-bit MT19937 words over 2**32 (legacy ``init_genrand`` seeding)."""
    words = np.random.RandomState(seed).randint(0, 2**32, size=n, dtype=np.uint32)
    return words / 2**32


def geometric_mod(a: int, k: int, m: int) -> int:
    """(1 + a + ... + a**(k-1)) mod m, exact for any a >= 1."""
    if a == 1:
        return k % m
    return (pow(a, k, (a - 1) * m) - 1) // (a - 1) % m


def lcg_jump(m: int, a: int, c: int, y0: int, k: int) -> int:
    """State k steps after y0: (a**k y0 + c (a**k - 1)/(a - 1)) mod m."""
    return (pow(a, k, m) * y0 + c * geometric_mod(a, k, m)) % m


def lcg_states(m: int, a: int, c: int, y0: int, n: int) -> np.ndarray:
    """States y_1 .. y_n of y' = (a y + c) mod m, for m <= 2**32.

    The first block is stepped in Python integers; every later block is
    the previous one jumped ahead by ``_BLOCK`` steps in uint64, which is
    exact because A * y + C < 2**64 when m <= 2**32.
    """
    if m > 2**32:
        raise ValueError("modulus above 2**32")
    out = np.empty(n, dtype=np.uint64)
    y = y0
    head = min(n, _BLOCK)
    for i in range(head):
        y = (a * y + c) % m
        out[i] = y
    big_a = np.uint64(pow(a, _BLOCK, m))
    big_c = np.uint64(c * geometric_mod(a, _BLOCK, m) % m)
    mod = np.uint64(m)
    for start in range(_BLOCK, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        prev = out[start - _BLOCK : stop - _BLOCK]
        out[start:stop] = (big_a * prev + big_c) % mod
    return out


def lcg_stream(m: int, a: int, c: int, y0: int, n: int) -> np.ndarray:
    return lcg_states(m, a, c, y0, n).astype(np.float64) / m


def wh_stream(seeds, n: int) -> np.ndarray:
    """Wichmann-Hill: ((s1/m1 + s2/m2) + s3/m3) mod 1, components s = a**k s0 mod m."""
    u = [lcg_states(m, a, 0, s, n).astype(np.float64) / m
         for m, a, s in zip(WH_MODULI, WH_MULTIPLIERS, seeds)]
    return np.fmod((u[0] + u[1]) + u[2], 1.0)


def wh_seeds(seed: int) -> tuple[int, int, int]:
    """Component seeds that ``make_generator("wh:", seed=seed)`` documents."""
    return tuple(seed % (m - 1) + 1 for m in WH_MODULI)


def stream(spec, n: int) -> np.ndarray:
    """The first n uniforms of ["mt", seed], ["wh", s1, s2, s3] or ["lcg", m, a, c, seed]."""
    family, *params = spec
    if family == "mt":
        return mt_stream(params[0], n)
    if family == "wh":
        return wh_stream(params, n)
    return lcg_stream(*params, n)


def seeded(spec, seed: int) -> list:
    """The stream spec that ``make_generator(descriptor, seed=seed)`` builds from
    a seedless ["mt"], ["wh"] or ["lcg", m, a, c]."""
    if spec[0] == "wh":
        return ["wh", *wh_seeds(seed)]
    return [*spec, seed]


def lcg_cycle_length(m: int, a: int, c: int, y0: int, cap: int) -> int | None:
    """Steps until the state returns to y0 (odd a makes the map a bijection)."""
    y = y0
    for i in range(1, cap + 1):
        y = (a * y + c) % m
        if y == y0:
            return i
    return None


# ---------------------------------------------------------------------------
# battery statistics


def _chi2(counts, expected) -> tuple[float, float, int]:
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    df = counts.size - 1
    return stat, float(sst.chi2.sf(stat, df)), df


def pool_bins(counts, expected, floor: float = 5.0):
    """Pool adjacent bins left to right until each pooled expectation >= floor;
    a short remainder joins the last pooled bin."""
    out_c, out_e, acc_c, acc_e = [], [], 0, 0.0
    for c, e in zip(counts, expected):
        acc_c += int(c)
        acc_e += float(e)
        if acc_e >= floor:
            out_c.append(acc_c)
            out_e.append(acc_e)
            acc_c, acc_e = 0, 0.0
    if acc_c or acc_e > 0.0:
        if out_c:
            out_c[-1] += acc_c
            out_e[-1] += acc_e
        else:
            out_c.append(acc_c)
            out_e.append(acc_e)
    return np.array(out_c), np.array(out_e)


def battery_reference(v: np.ndarray, groups: int = 10, bins: int = 100,
                      birthday_n: int = 512, birthday_k: int = 2**24) -> dict:
    """Statistic and p-value of each default battery result, by result name."""
    n = v.size
    ref = {}
    t = sst.ttest_1samp(v, 0.5)
    ref["t-mean"] = (float(t.statistic), float(t.pvalue))

    var_stat = (n - 1) * float(np.var(v, ddof=1)) * 12.0
    upper = float(sst.chi2.sf(var_stat, n - 1))
    lower = float(sst.chi2.cdf(var_stat, n - 1))
    ref["variance"] = (var_stat, min(2.0 * min(upper, lower), 1.0))

    size = n // groups
    lev = sst.levene(*v[: groups * size].reshape(groups, size), center="mean")
    ref["levene"] = (float(lev.statistic), float(lev.pvalue))

    u = np.sort(v)
    i = np.arange(1, n + 1) / n
    d = float(max(np.max(i - u), np.max(u - (i - 1 / n))))
    ref["ks"] = (d, float(sst.kstwobign.sf(math.sqrt(n) * d)))

    counts = np.bincount(np.minimum((v * bins).astype(np.int64), bins - 1), minlength=bins)
    gof = sst.chisquare(counts)
    ref["chi2-uniform"] = (float(gof.statistic), float(gof.pvalue))

    ref["anderson-darling"] = (anderson_darling_a2(u, presorted=True), None)

    # permutation: any bijective labelling of the 3! orderings gives the same
    # statistic; a stable argsort ranks the earlier of two tied values lower
    tup = v[: (n // 3) * 3].reshape(-1, 3)
    order = np.argsort(tup, axis=1, kind="stable")
    _, perm_counts = np.unique(order[:, 0] * 9 + order[:, 1] * 3 + order[:, 2],
                               return_counts=True)
    perm_counts = np.concatenate([perm_counts, np.zeros(6 - perm_counts.size)])
    ref["permutation"] = _chi2(perm_counts, np.full(6, tup.shape[0] / 6))[:2]

    pairs = np.minimum((v[: (n // 2) * 2] * 8).astype(np.int64), 7).reshape(-1, 2)
    serial_counts = np.bincount(pairs[:, 0] * 8 + pairs[:, 1], minlength=64)
    ref["serial"] = _chi2(serial_counts, np.full(64, pairs.shape[0] / 64))[:2]

    ref["birthday-spacings"] = birthday_reference(v, birthday_n, birthday_k)
    return ref


def birthday_reference(v, n: int, k: int) -> tuple[float, float]:
    blocks = v.size // n
    lam = n**3 / (4.0 * k)
    cells = np.sort(np.minimum((v[: blocks * n] * k).astype(np.int64), k - 1).reshape(blocks, n), axis=1)
    spacings = np.sort(np.diff(cells, axis=1), axis=1)
    y = (n - 1) - (1 + np.count_nonzero(np.diff(spacings, axis=1), axis=1))
    hist = np.bincount(y)
    pmf = sst.poisson.pmf(np.arange(hist.size), lam)
    expected = np.append(blocks * pmf, blocks * max(1.0 - float(pmf.sum()), 0.0))
    counts, expected = pool_bins(np.append(hist, 0), expected)
    return _chi2(counts, expected)[:2]


def anderson_darling_a2(v, eps: float = 1e-12, presorted: bool = False) -> float:
    """A^2 = -(n^2 + sum_i (2i - 1)(ln u_(i) + ln(1 - u_(n+1-i)))) / n, summed by fsum."""
    u = np.clip(v if presorted else np.sort(v), eps, 1.0 - eps)
    n = u.size
    terms = (np.log(u) + np.log1p(-u[::-1])) * np.arange(1.0, 2.0 * n, 2.0)
    return -math.fsum([float(n) * n, *terms.tolist()]) / n


# ---------------------------------------------------------------------------
# seed lab


def guarantee_value(paths_config: dict) -> float:
    """Discounted E[max(K - S_T, 0)] for log S_T ~ N(T (mu - s^2/2), T s^2)."""
    t = paths_config["horizon_steps"]
    s = paths_config["volatility"] * math.sqrt(t)
    mean = t * (paths_config["drift"] - 0.5 * paths_config["volatility"] ** 2)
    k = paths_config["strike_ratio"]
    d = (math.log(k) - mean) / s
    put = k * sst.norm.cdf(d) - math.exp(mean + 0.5 * s * s) * sst.norm.cdf(d - s)
    return math.exp(-paths_config["discount_rate"] * t) * put


def box_muller_estimate(uniforms, paths_config: dict) -> tuple[float, float]:
    """The guarantee estimate and its standard error from a uniform stream.

    Pairs (u1, u2) give r cos(2 pi u2) and then r sin(2 pi u2) with
    r = sqrt(-2 ln u1); a u1 of exactly 0.0 is skipped.
    """
    it = iter(uniforms)
    paths, steps = paths_config["paths"], paths_config["horizon_steps"]
    vol = paths_config["volatility"]
    log_drift = paths_config["drift"] - 0.5 * vol * vol
    strike = paths_config["strike_ratio"]
    two_pi = 2.0 * math.pi
    payoffs = np.empty(paths)
    spare = None
    for p in range(paths):
        log_s = 0.0
        for _ in range(steps):
            if spare is None:
                u1 = next(it)
                while u1 == 0.0:
                    u1 = next(it)
                theta = two_pi * next(it)
                r = math.sqrt(-2.0 * math.log(u1))
                z, spare = r * math.cos(theta), r * math.sin(theta)
            else:
                z, spare = spare, None
            log_s += log_drift + vol * z
        payoffs[p] = max(strike - math.exp(log_s), 0.0)
    disc = math.exp(-paths_config["discount_rate"] * steps)
    return disc * float(payoffs.mean()), disc * float(payoffs.std(ddof=1)) / math.sqrt(paths)


# ---------------------------------------------------------------------------
# lattices

# Hermite's constant to the power d, exact, for d = 2..8
HERMITE_POW = {2: (4, 3), 3: (2, 1), 4: (4, 1), 5: (8, 1), 6: (64, 3), 7: (64, 1), 8: (256, 1)}


def in_dual_lattice(u, a: int, m: int) -> bool:
    return sum(int(x) * pow(a, i, m) for i, x in enumerate(u)) % m == 0


def shortest_dual_vector_d3(a: int, m: int, radius: int):
    """Exact shortest nonzero u with u0 + u1 a + u2 a^2 = 0 (mod m), |u1|, |u2| <= radius.

    For given (u1, u2) the best u0 is the residue of -(u1 a + u2 a^2)
    nearest to zero; the search is exhaustive over the box.
    """
    r = np.arange(-radius, radius + 1, dtype=np.int64)
    u1, u2 = np.meshgrid(r, r, indexing="ij")
    u1, u2 = u1.ravel(), u2.ravel()
    u0 = -(u1 * a + u2 * (a * a % m)) % m
    u0 = np.where(u0 > m // 2, u0 - m, u0)
    norm = u0 * u0 + u1 * u1 + u2 * u2
    norm[(u0 == 0) & (u1 == 0) & (u2 == 0)] = np.iinfo(np.int64).max
    i = int(np.argmin(norm))
    return [int(u0[i]), int(u1[i]), int(u2[i])], int(norm[i])
