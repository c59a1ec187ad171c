"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way -- scalar
loops, exhaustive enumeration, textbook formulas -- so that agreement
with the package is evidence, not circularity.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np


class ScalarMT:
    """Direct transcription of the classic 32-bit Mersenne Twister loop."""

    def __init__(self, seed):
        self.mt = [0] * 624
        self.mt[0] = seed & 0xFFFFFFFF
        for i in range(1, 624):
            self.mt[i] = (
                1812433253 * (self.mt[i - 1] ^ (self.mt[i - 1] >> 30)) + i
            ) & 0xFFFFFFFF
        self.mti = 624

    def next_word(self):
        if self.mti >= 624:
            mt = self.mt
            for kk in range(624 - 397):
                y = (mt[kk] & 0x80000000) | (mt[kk + 1] & 0x7FFFFFFF)
                mt[kk] = mt[kk + 397] ^ (y >> 1) ^ (0x9908B0DF if y & 1 else 0)
            for kk in range(624 - 397, 623):
                y = (mt[kk] & 0x80000000) | (mt[kk + 1] & 0x7FFFFFFF)
                mt[kk] = mt[kk + (397 - 624)] ^ (y >> 1) ^ (0x9908B0DF if y & 1 else 0)
            y = (mt[623] & 0x80000000) | (mt[0] & 0x7FFFFFFF)
            mt[623] = mt[396] ^ (y >> 1) ^ (0x9908B0DF if y & 1 else 0)
            self.mti = 0
        y = self.mt[self.mti]
        self.mti += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        return y & 0xFFFFFFFF

    def next_uniform(self):
        return self.next_word() / 2**32


def lattice_min_norm_sq(m: int, a: int, d: int) -> int:
    """Exhaustive shortest-vector search in the L(m, a, d) dual lattice.

    The lattice is every integer vector u with
    u1 + u2*a + ... + ud*a^(d-1) == 0 (mod m).  For fixed tail
    (u2..ud) the best u1 is the absolutely-least residue of
    -(u2*a + ...), so the search space is a box over the tail alone.
    The box radius comes from the d-1 dimensional answer (appending a
    zero never lengthens a vector), making the cascade exact.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    # d = 2: walk u2 upward until u2^2 alone exceeds the best norm.
    best = m * m
    u2 = 0
    while u2 * u2 < best:
        r = (-u2 * a) % m
        u1 = r - m if 2 * r > m else r
        n = u1 * u1 + u2 * u2
        if n == 0:
            n = m * m  # the zero-tail class contributes (m, 0) instead
        best = min(best, n)
        u2 += 1
    if d == 2:
        return best
    powers = [pow(a, i, m) for i in range(1, d)]
    for dprime in range(3, d + 1):
        dim = dprime - 1  # tail length for the current dimension
        k = math.isqrt(best)
        axes = [np.arange(-k, k + 1, dtype=np.int64)] * dim
        grids = np.meshgrid(*axes, indexing="ij")
        s = sum(g * p for g, p in zip(grids, powers[:dim]))
        r = (-s) % m
        u1 = np.where(2 * r > m, r - m, r)
        norm = u1 * u1 + sum(g * g for g in grids)
        norm[norm == 0] = m * m
        best = min(best, int(norm.min()))
    return best


def lagrange_shortest(b1, b2):
    """Exact shortest vector of a rank-2 integer lattice by Lagrange (Gauss)
    reduction: shorten the longer vector against the shorter by the nearest
    integer multiple until it is no longer shorter."""

    def norm_sq(v):
        return sum(x * x for x in v)

    def round_ratio(p, q):  # nearest integer to p/q, q > 0
        return (2 * p + q) // (2 * q)

    u, v = [int(x) for x in b1], [int(x) for x in b2]
    if norm_sq(v) < norm_sq(u):
        u, v = v, u
    while True:
        q = round_ratio(sum(x * y for x, y in zip(u, v)), norm_sq(u))
        v = [x - q * y for x, y in zip(v, u)]
        if norm_sq(v) >= norm_sq(u):
            return u
        u, v = v, u


def perm_rank(values):
    """Rank vector (1 = smallest), earlier index wins ties."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for r, i in enumerate(order):
        ranks[i] = r + 1
    return tuple(ranks)


def all_rank_vectors(k):
    """All k! rank vectors in lexicographic order."""
    return list(itertools.permutations(range(1, k + 1)))


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form_put(config) -> float:
    """Discounted E[max(K - S, 0)] for the lognormal terminal level.

    Under the model, log S is normal with mean h*(drift - vol^2/2) and
    standard deviation vol*sqrt(h), i.e. the forward is exp(h*drift).
    """
    h = config.horizon_steps
    mu = config.drift * h
    sig = config.volatility * math.sqrt(h)
    k = config.strike_ratio
    disc = math.exp(-config.discount_rate * h)
    if sig == 0.0:
        return disc * max(k - math.exp(mu), 0.0)
    f = math.exp(mu)
    d1 = (math.log(f / k) + 0.5 * sig * sig) / sig
    d2 = d1 - sig
    return disc * (k * norm_cdf(-d2) - f * norm_cdf(-d1))


def lcg_sequence(m, a, c, seed, n):
    """The raw recurrence, one fresh state per draw."""
    out = []
    y = seed
    for _ in range(n):
        y = (a * y + c) % m
        out.append(y)
    return out


def first_line_apart(got: str, want: str):
    """The first line where two texts differ, as (index, got, want), or
    None when they are equal: a failing comparison of two long files
    shows this line instead of a diff that pytest would take minutes to
    build."""
    got, want = got.split("\n"), want.split("\n")
    apart = next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    if apart is None and len(got) != len(want):
        i = min(len(got), len(want))
        return i, got[i:i + 1], want[i:i + 1]
    return apart


SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
            'viewBox="0 0 800 800">\n<rect width="800" height="800" fill="white"/>\n')


def svg_circles(points):
    """The <circle> lines of an 800x800 SVG of (x, y) points, each
    coordinate formatted on its own: ``repr`` of numpy's two-place
    rounding (scale, rint, unscale) of x * 800 and of 800 - y * 800."""
    return [f'<circle cx="{float(np.round(x * 800, 2))!r}" '
            f'cy="{float(np.round(800 - y * 800, 2))!r}" r="1" fill="black"/>'
            for x, y in np.asarray(points, dtype=np.float64).tolist()]


def dict_period(params, cap):
    """Cycle length reached from the seed by marking first-visit indices in
    a dict until a state repeats; None when more than cap steps are needed."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    m, a, c = params.modulus, params.multiplier, params.increment
    y = params.seed
    seen = {y: 0}
    for i in range(1, cap + 1):
        y = (a * y + c) % m
        if y in seen:
            return i - seen[y]
        seen[y] = i
    return None


def first_repeat_step(params):
    """mu + lambda: the step at which the walk from the seed first repeats."""
    m, a, c = params.modulus, params.multiplier, params.increment
    y = params.seed
    seen = {y}
    step = 0
    while True:
        y = (a * y + c) % m
        step += 1
        if y in seen:
            return step
        seen.add(y)


def anderson_darling_a2(values, dps=30):
    """A^2 against the uniform law with every log and the sum in mpmath.

    -n - (1/n) * sum_i (2i - 1) (ln u_(i) + ln(1 - u_(n+1-i))) over the
    sorted sample, each float taken exactly; 30 digits leave the sum
    (of size ~n^2) exact far past the float result.
    """
    import mpmath  # only this oracle needs it

    u = sorted(float(x) for x in values)
    n = len(u)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for i in range(1, n + 1):
            total += (2 * i - 1) * (
                mpmath.log(u[i - 1]) + mpmath.log(1 - mpmath.mpf(u[n - i]))
            )
        return float(-n - total / n)


def fraction_gso(basis):
    """Gram-Schmidt data (mu, squared norms) in exact rationals."""
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar_sq = [Fraction(0)] * n
    bstar = [[Fraction(x) for x in row] for row in basis]
    for i in range(n):
        for j in range(i):
            if bstar_sq[j] == 0:
                raise ValueError("basis is singular")
            mu[i][j] = Fraction(
                sum(Fraction(basis[i][t]) * bstar[j][t] for t in range(len(basis[i])))
            ) / bstar_sq[j]
            for t in range(len(bstar[i])):
                bstar[i][t] -= mu[i][j] * bstar[j][t]
        bstar_sq[i] = sum(x * x for x in bstar[i])
    return mu, bstar_sq


_LLL_DELTA = Fraction(99, 100)


def fraction_lll_reduce(basis):
    """LLL reduction with exact rational Gram-Schmidt (fine for d <= 8).

    The Gram-Schmidt data is rebuilt after every size reduction and
    swap: slow, but plainly the textbook steps."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    mu, bstar_sq = fraction_gso(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, bstar_sq = fraction_gso(b)
        if bstar_sq[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * bstar_sq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bstar_sq = fraction_gso(b)
            k = max(k - 1, 1)
    return b


class FixedUniforms:
    """A stand-in generator that hands out the given uniforms in order,
    through ``generate(n)`` or ``next_uniform()``, and fails once they run
    out."""

    def __init__(self, values):
        self._values = np.array(values, dtype=np.float64)
        self._drawn = 0

    def generate(self, n):
        if self._drawn + n > self._values.size:
            raise IndexError("the fixed uniforms are used up")
        out = self._values[self._drawn:self._drawn + n].copy()
        self._drawn += n
        return out

    def next_uniform(self):
        return float(self.generate(1)[0])


class ScalarGaussianStream:
    """Box-Muller one pair at a time from scalar draws: a u1 of exactly 0.0
    is skipped and counted, and the pair's second normal waits for the
    next call."""

    def __init__(self, generator):
        self.generator = generator
        self.zero_skips = 0
        self._spare = None

    def next_gaussian(self):
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = self.generator.next_uniform()
        while u1 == 0.0:
            self.zero_skips += 1
            u1 = self.generator.next_uniform()
        u2 = self.generator.next_uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)


def scalar_payoffs(stream, config, paths):
    """Undiscounted guarantee payoffs of ``paths`` paths, one step at a time."""
    log_drift = config.drift - 0.5 * config.volatility**2
    vol = config.volatility
    out = np.empty(paths, dtype=np.float64)
    for i in range(paths):
        log_s = 0.0
        for _ in range(config.horizon_steps):
            log_s += log_drift + vol * stream.next_gaussian()
        out[i] = max(config.strike_ratio - math.exp(log_s), 0.0)
    return out


def delta_table_loop(estimates):
    """Relative deltas in percent, one column at a time; the column of a
    zero estimate holds 0 against other zeros and inf elsewhere."""
    est = np.asarray(estimates)
    n = est.size
    delta = np.zeros((n, n))
    for j in range(n):
        if est[j] != 0.0:
            delta[:, j] = (est - est[j]) / est[j] * 100.0
        else:
            delta[:, j] = np.where(est == 0.0, 0.0, np.inf)
    return delta


def sweep_pairs_loop(seeds, estimates, standard_errors, delta):
    """(largest |delta| off the diagonal, its seed pair, flag) by visiting
    every ordered pair: the first strict maximum wins, and the flag trips
    when a pair differs by more than 3 pooled standard errors."""
    est = np.asarray(estimates)
    se = np.asarray(standard_errors)
    n = est.size
    best = (0.0, (seeds[0], seeds[0]))
    flag = False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = abs(delta[i, j])
            if d > best[0]:
                best = (d, (seeds[i], seeds[j]))
            if abs(est[i] - est[j]) > 3.0 * math.hypot(se[i], se[j]):
                flag = True
    return float(best[0]), best[1], flag


def load_sample_lines(path, header_prefix="# rngaudit-sample v1"):
    """(values, provenance) of a sample file, one float() per line: blank
    and '#' lines skipped anywhere, the last non-empty header wins."""
    provenance = "external file"
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(header_prefix):
                    tail = line[len(header_prefix):].strip()
                    if tail:
                        provenance = tail
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
    return np.asarray(values, dtype=np.float64), provenance


def _bad_line(path) -> str | None:
    """The error for the first line of the file that is neither blank, a
    comment nor a number in [0, 1), if there is one."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    value = float(line)
                except ValueError:
                    return f"{path}:{lineno}: not a number: {line!r}"
                if not 0.0 <= value < 1.0:
                    return f"{path}:{lineno}: outside [0, 1): {line!r}"
    return None


def whole_file_load_sample(path):
    """``load_sample`` as it read a file before it read one in blocks: a
    scan for headers, inline comments and NULs, then ``np.loadtxt`` of the
    whole file into READ_WIDTH-byte rows for the exact kernel, or into
    floats after a NUL or a text that fills its row."""
    from rngaudit.generators import Sample
    from rngaudit.io import READ_WIDTH, SAMPLE_HEADER_PREFIX, TEXT_BLOCK, _read_rows

    provenance, inline, nul = "external file", False, False
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    nul = "\0" in text
    at = text.find("#")
    while at >= 0:
        head = text[text.rfind("\n", 0, at) + 1:at]
        inline |= bool(head) and not head.isspace()
        end = text.find("\n", at)
        comment = text[at:len(text) if end < 0 else end]
        tail = comment[len(SAMPLE_HEADER_PREFIX):].strip()
        if comment.startswith(SAMPLE_HEADER_PREFIX) and tail:
            provenance = tail
        at = -1 if end < 0 else text.find("#", end)
    del text
    try:
        if inline:
            raise ValueError("a '#' inside a value line")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without values
            rows = np.loadtxt(path, dtype=np.float64 if nul else f"S{READ_WIDTH}",
                              comments="#", ndmin=2, encoding="utf-8")
            if rows.shape[1] > 1:
                raise ValueError("more than one value on a line")
            if not nul and rows.view(np.uint8)[:, -1].any():
                rows = np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2,
                                  encoding="utf-8")
        if rows.dtype == np.float64:
            return Sample(rows[:, 0], provenance=provenance)
        rows = rows.view(np.uint8)
        values = np.empty(rows.shape[0])
        read = np.empty(rows.shape[0], bool)
        for start in range(0, rows.shape[0], TEXT_BLOCK):
            block = slice(start, start + TEXT_BLOCK)
            read[block] = _read_rows(rows[block], values[block])
        others = np.flatnonzero(~read)
        if others.size:
            texts = [t.decode("latin-1")
                     for t in rows[others].view(f"S{READ_WIDTH}")[:, 0].tolist()]
            values[others] = np.loadtxt(texts, dtype=np.float64, ndmin=1)
        return Sample(values, provenance=provenance)
    except ValueError as exc:
        raise ValueError(_bad_line(path) or f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# The battery's kernels as formulas over the whole sample at once.  The
# package walks the sample in blocks of STAT_BLOCK values; these take every
# value in one array expression, in the same floating-point operations.

def ks_distances(ordered):
    """(D+, D-) of the sorted sample: max i/n - x_(i) and max x_(i) - (i-1)/n."""
    n = ordered.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.max(i / n - ordered)), float(np.max(ordered - (i - 1.0) / n))


def anderson_darling_terms(ordered, clamp=1e-12):
    """(2i - 1)(log u_(i) + log1p(-u_(n+1-i))) with u clipped into
    [clamp, 1 - clamp], and the count of values the clip moved; A^2 is
    -(n^2 + sum of the terms) / n."""
    u = np.clip(ordered, clamp, 1.0 - clamp)
    i = np.arange(1, u.size + 1, dtype=np.float64)
    terms = (2.0 * i - 1.0) * (np.log(u) + np.log1p(-u[::-1]))
    return terms, int(np.sum((ordered < clamp) | (ordered > 1.0 - clamp)))


def levene_statistic(values, groups):
    """Levene's F over ``groups`` contiguous equal blocks, centred on the
    group means."""
    size = values.size // groups
    blocks = values[: groups * size].reshape(groups, size)
    z = np.abs(blocks - blocks.mean(axis=1)[:, None])
    zbar_i = z.mean(axis=1)
    zbar = float(z.mean())
    between = size * float(np.sum((zbar_i - zbar) ** 2))
    within = float(np.sum((z - zbar_i[:, None]) ** 2))
    return (groups * size - groups) / (groups - 1) * between / within


def bin_counts(values, bins):
    """Counts of the values in ``bins`` equal bins of [0, 1)."""
    return np.bincount(np.minimum((values * bins).astype(np.int64), bins - 1), minlength=bins)


def permutation_counts(values, k):
    """Counts of the k! rank patterns (Lehmer codes, ties to the earlier
    index) of the disjoint k-tuples, and the number of tuples with a tie."""
    tup = values[: values.size // k * k].reshape(-1, k)
    index = np.zeros(tup.shape[0], dtype=np.int64)
    tied = np.zeros(tup.shape[0], dtype=bool)
    for i in range(k - 1):
        later = tup[:, i + 1:]
        index += np.sum(later < tup[:, i:i + 1], axis=1) * math.factorial(k - 1 - i)
        tied |= np.any(later == tup[:, i:i + 1], axis=1)
    return np.bincount(index, minlength=math.factorial(k)), int(tied.sum())


def serial_counts(values, d, l):
    """Counts of the d**l cells of the disjoint l-tuples of d-ary digits."""
    tup = values[: values.size // l * l].reshape(-1, l)
    digits = np.minimum((tup * d).astype(np.int64), d - 1)
    cells = digits @ (d ** np.arange(l - 1, -1, -1, dtype=np.int64))
    return np.bincount(cells, minlength=d**l)


def duplicate_spacings(values, n, k):
    """Per disjoint block of n values drawn into k cells: the duplicated
    spacings Y = (n - 1) - #distinct spacings, and the cell collisions."""
    y, collisions = [], []
    for start in range(0, values.size // n * n, n):
        cells = sorted(min(int(x * k), k - 1) for x in values[start:start + n].tolist())
        spacings = [b - a for a, b in zip(cells, cells[1:])]
        y.append((n - 1) - len(set(spacings)))
        collisions.append(spacings.count(0))
    return np.array(y), np.array(collisions)


# ---------------------------------------------------------------------------
# The textbook continued fractions (Numerical Recipes gcf and betacf), each
# its own modified Lentz loop with the package's constants.

ITMAX = 500
EPS = 1e-15
FPMIN = 1e-300


def nr_gcf(s, x):
    """The continued fraction of Q(s, x) without its prefactor
    x^s e^-x / Gamma(s), for x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, ITMAX + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < FPMIN:
            d = FPMIN
        c = b + an / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def nr_betacf(a, b, x):
    """The continued fraction of the incomplete beta function I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h
