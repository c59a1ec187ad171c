"""Exact lattice accuracy test for linear congruential generators.

Overlapping d-tuples of a full-period LCG fall on a shifted integer
lattice; the figure of merit nu_d is the length of the shortest nonzero
vector of the dual lattice

    { u in Z^d : u[0] + u[1]*a + ... + u[d-1]*a**(d-1) == 0 (mod m) }

which equals 1 over the widest spacing of the parallel hyperplane
families covering all tuples.  The basis used here is the classical
row set (m, 0, ..., 0), (-a, 1, 0, ...), (-a^2, 0, 1, ...), ... with
determinant +-m.

Everything is exact: in every dimension the shortest vector is found by
integral LLL reduction (integer Gram-Schmidt data, exact divisions only)
followed by a bounded integer enumeration, and squared lengths are kept
as Python integers.  The acceptance rule nu_d >= 2**(30/d) for d = 2..6
is evaluated in squared form, where both sides are exact integers.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .generators import LcgParams
from .io import (REPR_WIDTH, TERMINATOR, TEXT_BLOCK, atomic_files, atomic_write_text, join_rows,
                 repr_cells, repr_rows, rows_text)
from .stats import TestResult, _values

__all__ = [
    "dual_lattice_basis",
    "shortest_vector",
    "spectral_accuracy_sq",
    "spectral_accept",
    "acceptance_threshold",
    "acceptance_threshold_sq",
    "point_cloud",
    "thin",
    "plane_membership",
    "export_cloud_csv",
    "export_cloud_svg",
]

ACCEPT_DIMS = (2, 3, 4, 5, 6)
MAX_DIM = 8
CLOUD_POINT_CAP = 2**20
# plane_membership: the largest distance from the plane family that still fits it
PLANE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# basis and exact shortest vector

def dual_lattice_basis(params: LcgParams, d: int) -> list[list[int]]:
    """Rows generating the dual lattice of overlapping d-tuples."""
    if not 2 <= d <= MAX_DIM:
        raise ValueError(f"dimension must lie in [2, {MAX_DIM}]")
    m, a = params.modulus, params.multiplier
    rows = [[m] + [0] * (d - 1)]
    power = 1
    for i in range(1, d):
        power = (power * a) % m
        row = [0] * d
        row[0] = -power
        row[i] = 1
        rows.append(row)
    return rows


def _norm_sq(v) -> int:
    return sum(int(x) * int(x) for x in v)


def _dot(u, v) -> int:
    return sum(int(x) * int(y) for x, y in zip(u, v))


def _round_half_even(p: int, q: int) -> int:
    """Nearest integer to p/q for positive q, ties to even (as round() of the ratio)."""
    floor, rem = divmod(p, q)
    if 2 * rem > q or (2 * rem == q and floor & 1):
        return floor + 1
    return floor


def _integral_gso(b):
    """Integral Gram-Schmidt data (lam, d) of an integer basis.

    d[0] = 1 and d[i+1] = d[i] * |b*_i|**2 are the Gram determinants of
    the leading rows, and lam[i][j] = d[j+1] * mu[i][j] for j < i; all
    are integers and every division below is exact (Cohen 1993, Alg.
    2.6.7, step 2).
    """
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("basis is singular")
            else:
                d[k + 1] = u
    return lam, d


def _lll_reduce(basis):
    """LLL reduction (delta = 99/100) in exact integer arithmetic.

    Integral LLL after Cohen 1993, Alg. 2.6.7: a size reduction updates
    row k of lam in place and a swap updates lam and d by exact
    divisions, so the Gram-Schmidt data is never rebuilt.  Returns the
    reduced basis with its (lam, d).
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    lam, d = _integral_gso(b)
    k = 1
    while k < n:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_even(row[j], d[j + 1])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                row[j] -= q * d[j + 1]
                for i in range(j):
                    row[i] -= q * lam[j][i]
        lk = row[k - 1]
        # Lovasz: |b*_k|^2 >= (99/100 - mu^2) |b*_{k-1}|^2, times 100 d[k] d[k-1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] * d[k] - 100 * lk * lk:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b, lam, d


def _enumerate_shortest(reduced, lam, d) -> list[int]:
    """Exact shortest nonzero vector of an LLL-reduced integer basis.

    Depth-first integer enumeration with floating-point Gram-Schmidt
    bounds (mu = lam/d and |b*|^2 ratios of d, each a correctly rounded
    int/int division) inflated by a generous relative slack; every
    candidate's squared norm is re-computed exactly in integers, so
    float error can only admit spurious boundary candidates, never
    verdicts.
    """
    n = len(reduced)
    muf = [[lam[i][j] / d[j + 1] for j in range(i)] for i in range(n)]
    bf = [d[i + 1] / d[i] for i in range(n)]
    best_vec = min(reduced, key=_norm_sq)
    best_sq = _norm_sq(best_vec)
    slack = 1.0 + 1e-6
    x = [0] * n

    def exact_candidate():
        nonlocal best_vec, best_sq
        vec = [0] * len(reduced[0])
        for i in range(n):
            if x[i]:
                for t in range(len(vec)):
                    vec[t] += x[i] * reduced[i][t]
        sq = _norm_sq(vec)
        if 0 < sq < best_sq:
            best_sq = sq
            best_vec = vec

    def descend(level, partial):
        if level < 0:
            if any(x):
                exact_candidate()
            return
        center = -sum(muf[j][level] * x[j] for j in range(level + 1, n))
        budget = best_sq * slack - partial
        if budget < 0:
            return
        radius = math.sqrt(budget / bf[level]) if bf[level] > 0 else 0.0
        lo = math.ceil(center - radius - 1e-9)
        hi = math.floor(center + radius + 1e-9)
        for xi in range(lo, hi + 1):
            if level == n - 1 and xi < 0:
                continue  # the lattice is symmetric; search half the top level
            x[level] = xi
            offset = xi - center
            descend(level - 1, partial + bf[level] * offset * offset)
        x[level] = 0

    descend(n - 1, 0.0)
    return best_vec


def shortest_vector(basis) -> list[int]:
    """A shortest nonzero vector of the lattice spanned by ``basis``, found
    by LLL reduction and enumeration in every dimension."""
    return _enumerate_shortest(*_lll_reduce(basis))


def spectral_accuracy_sq(params: LcgParams, d: int) -> tuple[int, list[int]]:
    """Exact squared accuracy nu_d**2 and a vector achieving it.

    Independent of the increment and the seed: only modulus and
    multiplier enter the lattice.
    """
    vec = shortest_vector(dual_lattice_basis(params, d))
    return _norm_sq(vec), vec


# ---------------------------------------------------------------------------
# acceptance rule

def acceptance_threshold(d: int) -> float:
    """Required accuracy 2**(30/d) for dimensions 2..6."""
    if d not in ACCEPT_DIMS:
        raise ValueError("the acceptance rule covers dimensions 2..6 only")
    return 2.0 ** (30.0 / d)


def acceptance_threshold_sq(d: int) -> int:
    """The squared threshold 2**(60/d), exact (60/d is integral for d = 2..6)."""
    if d not in ACCEPT_DIMS:
        raise ValueError("the acceptance rule covers dimensions 2..6 only")
    return 2 ** (60 // d)


def _dimension_record(d: int, accuracy_sq: int, vector) -> TestResult:
    """The record of one dimension: nu_d, judged by the rule where it applies."""
    ruled = d in ACCEPT_DIMS
    if ruled:
        verdict = "pass" if accuracy_sq >= acceptance_threshold_sq(d) else "reject"
    else:
        verdict = "info"
    detail = {
        "accuracy_sq": accuracy_sq,
        "threshold": acceptance_threshold(d) if ruled else None,
        "threshold_sq": acceptance_threshold_sq(d) if ruled else None,
        "shortest_vector": list(vector),
    }
    return TestResult(f"spectral-d{d}", math.sqrt(accuracy_sq), None, None, detail, verdict)


def spectral_accept(params: LcgParams, d_max: int = 6) -> list[TestResult]:
    """One ``spectral-d{d}`` record of nu_d for each d = 2..d_max.

    A record passes iff nu_d >= 2**(30/d), compared exactly in squared
    integer form; dimensions 7..8 are reported without thresholds, as
    "info".  ``stats.summary_verdict`` of the records is the verdict.
    """
    if not 2 <= d_max <= MAX_DIM:
        raise ValueError(f"d_max must lie in [2, {MAX_DIM}]")
    return [_dimension_record(d, *spectral_accuracy_sq(params, d))
            for d in range(2, d_max + 1)]


# ---------------------------------------------------------------------------
# point clouds

def thin(points, cap: int):
    """Every k-th row of ``points``, k the least stride that leaves at most
    ``cap`` rows: the one thinning rule of clouds and their SVG export."""
    return points[::-(-len(points) // cap)] if len(points) > cap else points


def point_cloud(sample, d: int, cap: int = CLOUD_POINT_CAP) -> np.ndarray:
    """Overlapping d-tuples (x_i, ..., x_{i+d-1}) of the sample, as the
    rows of an (n, d) array.

    A sample of n values yields n - d + 1 tuples.  Above ``cap`` tuples
    the cloud is thinned by stride sampling (every k-th tuple) to stay
    plottable; the stride is recorded nowhere else, so exact tuple
    counts matter only below the cap.  The array is a read-only view of
    the sample's values, not a copy.
    """
    if d not in (2, 3):
        raise ValueError("point clouds support dimensions 2 and 3")
    values = _values(sample)
    if values.size < d:
        raise ValueError("sample shorter than the tuple dimension")
    pts = np.lib.stride_tricks.sliding_window_view(values, d)
    return thin(pts, cap)


def plane_membership(cloud: np.ndarray, dual_vector) -> dict:
    """How well the cloud fits the plane family of a dual vector.

    For a dual vector u the quantity u . x of every tuple x should sit a
    fixed fractional offset away from an integer.  Returns the maximal
    deviation from the first tuple's offset (wrapped to [0, 1/2]), the
    number of distinct planes hit, and whether all points lie within
    ``PLANE_SLACK`` of the family.
    """
    u = np.asarray(dual_vector, dtype=np.float64)
    if u.shape != cloud.shape[1:]:
        raise ValueError("dual vector dimension mismatch")
    # a contiguous copy takes the BLAS product whatever the cloud's strides,
    # so the offsets do not depend on whether the cloud is a view
    t = np.ascontiguousarray(cloud) @ u
    frac = t - np.floor(t)
    offset = float(frac[0])
    dev = np.abs(frac - offset)
    dev = np.minimum(dev, 1.0 - dev)
    max_dev = float(dev.max())
    plane_ids = np.unique(np.round(t - offset).astype(np.int64))
    return {
        "offset": offset,
        "max_deviation": max_dev,
        "n_planes": int(plane_ids.size),
        "within_slack": bool(max_dev <= PLANE_SLACK),
    }


def export_cloud_csv(clouds, paths) -> int:
    """Write each cloud as CSV with header x1,x2[,x3]; returns the rows written.

    ``clouds`` and ``paths`` are one cloud and one path, or equal-length
    lists of them; a cloud is a 2-D float64 array.  Each cell is ``repr``
    of its value.  The files are written together, TEXT_BLOCK rows of
    every cloud at a time.  A window of an array (``point_cloud``, thinned
    or not) with row stride k <= d holds value r * k + c in cell (r, c);
    the windows with one start and one k share their values, and any
    other cloud is read as its own window with k = d.  So each block puts
    every value its windows hold into one array once, formats it
    (``repr_rows``), and takes each file's cells from the text at
    r * k + c: no value is formatted twice and nothing is sorted.  Each
    file appears whole or not at all.
    """
    if isinstance(clouds, np.ndarray):
        clouds, paths = [clouds], [paths]
    if len(clouds) != len(paths):
        raise ValueError("need one path per cloud")
    if not all(isinstance(c, np.ndarray) and c.ndim == 2 and c.dtype == np.float64
               for c in clouds):
        raise ValueError("each cloud must be a 2-D float64 array")
    groups = {}  # windows by (start, row stride), other clouds by index: k, clouds
    for i, cloud in enumerate(clouds):
        step, col = cloud.strides
        window = col == 8 and step % 8 == 0 and 0 < step <= 8 * cloud.shape[1]
        key = (cloud.__array_interface__["data"][0], step) if window else i
        groups.setdefault(key, (step // 8 if window else cloud.shape[1], []))[1].append(i)
    rows = max((len(c) for c in clouds), default=0)
    with atomic_files(paths) as handles:
        for fh, cloud in zip(handles, clouds):
            fh.write(",".join(f"x{i + 1}" for i in range(cloud.shape[1])) + "\n")
        for start in range(0, rows, TEXT_BLOCK):
            for k, members in groups.values():
                blocks = [(i, clouds[i][start:start + TEXT_BLOCK]) for i in members
                          if len(clouds[i]) > start]
                if not blocks:
                    continue
                values = np.zeros(max((len(b) - 1) * k + b.shape[1] for _, b in blocks))
                for _, b in blocks:
                    as_strided(values, b.shape, (8 * k, 8))[...] = b
                text = repr_rows(values)
                for i, b in blocks:
                    cells = as_strided(text, (*b.shape, REPR_WIDTH),
                                       (k * REPR_WIDTH, REPR_WIDTH, 1))
                    handles[i].write(join_rows(cells.reshape(-1, REPR_WIDTH), b.shape[1]))
    return sum(len(c) for c in clouds)


SVG_SIZE = 800
SVG_MAX_POINTS = 32768
# One circle of the SVG as a row of bytes: its fixed text with NULs after
# each piece, and a cell of TERMINATOR bytes at 16 and at 48 for each
# coordinate's text, padded with NULs.
_CIRCLE = np.frombuffer(b"".join([b'<circle cx="'.ljust(16, b"\0"), bytes(TERMINATOR),
                                  b'" cy="'.ljust(8, b"\0"), bytes(TERMINATOR),
                                  b'" r="1" fill="black"/>\n'.ljust(24, b"\0")]), np.uint8)
_CELL_AT, _CELL_STEP = 16, 32
# The first two 4-byte words of the cell of k hundredths, k = 0..100 * SVG_SIZE:
# the units of k // 100 and the point ("800."), then k % 100 with its
# trailing zero dropped ("5" for 50, "05" for 5, "0" for 0).
_UNITS = np.frombuffer(b"".join(f"{q}.".encode().ljust(4, b"\0") for q in range(SVG_SIZE + 1)),
                       np.uint32)
_HUNDREDTHS = np.frombuffer(b"".join((f"{r:02d}".rstrip("0") or "0").encode().ljust(4, b"\0")
                                     for r in range(100)), np.uint32)


def _circle_rows(points: np.ndarray) -> np.ndarray:
    """The circles of an (n, 2) block of points as (n, _CIRCLE.size) rows.

    Each coordinate c (x * SVG_SIZE, and SVG_SIZE - y * SVG_SIZE) is
    rounded as ``np.round(c, 2)`` rounds it: k = rint(c * 100), then
    k / 100.  Its text is ``repr(k / 100)``.  A k in 0..100 * SVG_SIZE
    with its sign bit clear takes the text from its digits, k // 100, a
    point and k % 100 with its trailing zero dropped, which is that
    ``repr``; every other coordinate (-0.0, a negative, NaN, inf, a
    value above SVG_SIZE) gets ``repr`` itself.
    """
    n = len(points)
    rows = np.empty((n, _CIRCLE.size), np.uint8)
    rows[:] = _CIRCLE
    cells = as_strided(rows[:, _CELL_AT:], (n, 2, TERMINATOR), (_CIRCLE.size, _CELL_STEP, 1))
    k = np.empty((n, 2))
    np.multiply(points[:, 0], SVG_SIZE, out=k[:, 0])
    np.subtract(SVG_SIZE, points[:, 1] * SVG_SIZE, out=k[:, 1])
    k *= 100.0
    np.rint(k, out=k)
    digits = (k <= 100 * SVG_SIZE) & ~np.signbit(k)
    hundredths = np.where(digits, k, 0.0)
    units = np.floor(hundredths / 100.0)  # exact: k is an integer
    hundredths -= 100.0 * units
    words = cells[:, :, :8].view(np.uint32)
    words[:, :, 0] = _UNITS[units.astype(np.intp)]
    words[:, :, 1] = _HUNDREDTHS[hundredths.astype(np.intp)]
    slow = np.nonzero(~digits)
    if slow[0].size:
        cells[slow] = repr_cells(k[slow] / 100.0)
    return rows


def export_cloud_svg(cloud: np.ndarray, path) -> int:
    """Scatter a 2-D cloud into an 800x800 SVG; returns the points drawn.

    Clouds larger than ``SVG_MAX_POINTS`` are thinned by stride sampling
    so the file stays viewable.  Each point is one ``<circle>`` whose cx
    and cy are ``repr`` of x * 800 and 800 - y * 800 rounded to two
    places by numpy's rule (scale by 100, rint, unscale), not by Python's
    correctly rounded ``round()``.  TEXT_BLOCK circles at a time become
    byte rows (``_circle_rows``) and the text of the rows without their
    NULs (``rows_text``): a coordinate in [0, 800] takes its text from
    its digits, any other gets ``repr``.
    """
    if cloud.shape[1:] != (2,):
        raise ValueError("SVG export is 2-D only")
    pts = thin(cloud, SVG_MAX_POINTS)
    s = SVG_SIZE

    def chunks():
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
               f'viewBox="0 0 {s} {s}">\n<rect width="{s}" height="{s}" fill="white"/>\n')
        for start in range(0, len(pts), TEXT_BLOCK):
            yield rows_text(_circle_rows(pts[start:start + TEXT_BLOCK]))
        yield "</svg>\n"

    atomic_write_text(path, chunks())
    return int(pts.shape[0])
