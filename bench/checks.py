"""Checks of rngaudit's outputs against the computations in reference.py.

Each check returns a list of ``(check, message)`` failures; an empty
list means the output is right.  A failure whose check name is in
``KNOWN_FAULTS`` is caused by a fault the program has today: the
operation counts as failed, and the run stays correct.  Any other
failure makes the run incorrect.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference as ref

P_REL = 1e-8       # p-values: far above rounding error, far below a 1e-6 error
STAT_REL = 1e-9    # statistics summed in another order than the program's
AD_ABS = 1e-10     # A^2 ~ 1; both sides sum the same numpy logs exactly
SWEEP_SE = 5.0     # estimates vs the closed form, in standard errors
PLANE_SLACK = 1e-9

KNOWN_FAULTS = {
    "ks.p_value": "stats.kolmogorov_sf: 100-term series is wrong for lambda near 0",
    "variance.p_value": "stats._gamma_p_series stops at _ITMAX = 500 terms unconverged",
}

EXIT_FOR_VERDICT = {"pass": 0, "accept": 0, "reject": 1, "error": 2}


def close(x, y, rel) -> bool:
    if x is None or y is None:
        return x is y
    if abs(x) <= 1e-300 and abs(y) <= 1e-300:
        return True
    return abs(x - y) <= rel * max(abs(x), abs(y))


def check_exit_code(report, code):
    want = EXIT_FOR_VERDICT.get(report["summary"].get("verdict"))
    if code != want:
        return [("exit_code", f"exit code {code}, verdict {report['summary'].get('verdict')}")]
    return []


def check_schema(report, validator):
    return [("schema", e.message) for e in validator.iter_errors(report)]


def check_rerun(report, rerun_from_manifest, payload_without_timestamp):
    if rerun_from_manifest(report["manifest"]) != payload_without_timestamp(report):
        return [("manifest.rerun", "payload differs from its rebuild from the manifest")]
    return []


def check_stream(values, expected, what="stream"):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != expected.shape:
        return [(what, f"{values.size} values, expected {expected.size}")]
    bad = np.flatnonzero(values != expected)
    if bad.size:
        i = int(bad[0])
        return [(what, f"{bad.size} values differ, first at {i}: {values[i]!r} != {expected[i]!r}")]
    return []


def check_lcg_positions(values, m, a, c, y0, count=257):
    """Values at ``count`` positions spread over the stream vs the exact jump."""
    out = []
    for k in np.unique(np.linspace(0, len(values) - 1, count).astype(int)):
        want = ref.lcg_jump(m, a, c, y0, int(k) + 1) / m
        if values[k] != want:
            out.append(("lcg.jump", f"value {k} is {values[k]!r}, jump gives {want!r}"))
    return out


def check_battery(report, values, check_variance_p=True):
    """Every battery result against scipy and numpy recounts on ``values``."""
    out = []
    results = {r["name"]: r for r in report["results"]}
    want = ref.battery_reference(values)
    if set(results) != set(want):
        return [("battery.results", f"results {sorted(results)}")]
    for name, (stat, p) in want.items():
        r = results[name]
        if name == "anderson-darling":
            if abs(r["statistic"] - stat) > AD_ABS:
                out.append(("anderson-darling.statistic", f"{r['statistic']!r} != {stat!r}"))
            continue
        if not close(r["statistic"], stat, STAT_REL):
            out.append((f"{name}.statistic", f"{r['statistic']!r} != {stat!r}"))
        if name == "variance" and not check_variance_p:
            continue
        if not close(r["p_value"], p, P_REL):
            out.append((f"{name}.p_value", f"{r['p_value']!r} != {p!r}"))
    for r in report["results"]:
        verdict = "reject" if r["p_value"] < r["alpha"] else "pass"
        if r["verdict"] != verdict:
            out.append(("battery.verdict", f"{r['name']}: {r['verdict']} at p={r['p_value']}"))
    n_rej = sum(r["verdict"] == "reject" for r in report["results"])
    summary = report["summary"]
    if summary["n_rejections"] != n_rej or summary["sample_size"] != values.size:
        out.append(("battery.summary", f"summary {summary}"))
    if summary["verdict"] != ("reject" if n_rej else "pass"):
        out.append(("battery.summary", f"verdict {summary['verdict']} with {n_rej} rejections"))
    return out


def read_sample_file(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], np.array(lines[1:], dtype=np.float64)


def check_sample_file(header, values, expected, descriptor):
    out = []
    if header != f"# rngaudit-sample v1 {descriptor}":
        out.append(("sample_file.header", header))
    return out + check_stream(values, expected, "sample_file")


# ---------------------------------------------------------------------------
# seed sweep


def check_sweep(report, code, check_closed_form):
    """Delta table, max pair and flag recomputed from the per-seed estimates."""
    out = []
    detail = report["results"][0]["detail"]
    per_seed = detail["per_seed"]
    seeds = [r["seed"] for r in per_seed]
    est = np.array([r["estimate"] for r in per_seed])
    se = np.array([r["standard_error"] for r in per_seed])
    delta = np.array(detail["delta_pct"])
    want = np.empty_like(delta)
    for j in range(est.size):
        want[:, j] = (est - est[j]) / est[j] * 100.0
    if delta.shape != want.shape or np.any(delta != want):
        out.append(("sweep.delta", "delta table differs from (e_i - e_j) / e_j * 100"))
    best, pair, flag = 0.0, [seeds[0], seeds[0]], False
    for i in range(est.size):
        for j in range(est.size):
            if i != j:
                if abs(want[i, j]) > best:
                    best, pair = abs(want[i, j]), [seeds[i], seeds[j]]
                flag |= abs(est[i] - est[j]) > 3.0 * math.hypot(se[i], se[j])
    if detail["max_abs_relative_delta"] != best or detail["max_pair"] != pair:
        out.append(("sweep.max_pair", f"{detail['max_pair']} {detail['max_abs_relative_delta']}"
                                      f" != {pair} {best}"))
    if detail["seed_effect_flag"] != flag:
        out.append(("sweep.flag", f"flag {detail['seed_effect_flag']}, recomputed {flag}"))
    if code != (1 if flag else 0):
        out.append(("exit_code", f"exit code {code} with flag {flag}"))
    if check_closed_form:
        value = ref.guarantee_value(report["manifest"]["config"])
        for s, e, err in zip(seeds, est, se):
            if abs(e - value) > SWEEP_SE * err:
                out.append(("sweep.closed_form", f"seed {s}: {e} is {(e - value) / err:+.2f} SE"
                                                 f" from {value}"))
    return out


def check_box_muller(report, seed, uniforms):
    """The estimate for ``seed`` equals a Box-Muller loop over the reference stream."""
    row = next(r for r in report["results"][0]["detail"]["per_seed"] if r["seed"] == seed)
    est, se = ref.box_muller_estimate(uniforms, report["manifest"]["config"])
    if (row["estimate"], row["standard_error"]) != (est, se):
        return [("sweep.box_muller", f"seed {seed}: {row['estimate']!r}, {row['standard_error']!r}"
                                     f" != {est!r}, {se!r}")]
    return []


# ---------------------------------------------------------------------------
# lattices


def check_spectral(report, code, m, a, accuracy_sq_of=None):
    """Shortest vectors lie in the dual lattice and obey monotonicity, Hermite's
    bound and the mirror symmetry of the inverse multiplier."""
    out = []
    acc = {}
    for r in report["results"]:
        d = int(r["name"].removeprefix("spectral-d"))
        u, sq = r["detail"]["shortest_vector"], r["detail"]["accuracy_sq"]
        acc[d] = (sq, u)
        if len(u) != d or not any(u):
            out.append(("spectral.vector", f"d={d}: {u}"))
        elif not ref.in_dual_lattice(u, a, m):
            out.append(("spectral.lattice", f"d={d}: {u} not in the dual lattice"))
        if sum(x * x for x in u) != sq or r["statistic"] != math.sqrt(sq):
            out.append(("spectral.norm", f"d={d}: |u|^2 != {sq}"))
        num, den = ref.HERMITE_POW[d]
        if den * sq**d > num * m * m:
            out.append(("spectral.hermite", f"d={d}: nu^2 = {sq} above Hermite's bound"))
        if d <= 6:
            ok = sq >= 2 ** (60 // d)
            if r["verdict"] != ("pass" if ok else "reject"):
                out.append(("spectral.verdict", f"d={d}: {r['verdict']}"))
    dims = sorted(acc)
    for d in dims[1:]:
        if acc[d][0] > acc[d - 1][0]:
            out.append(("spectral.monotone", f"nu^2_{d} > nu^2_{d - 1}"))
    accept = all(r["verdict"] != "reject" for r in report["results"])
    if report["summary"]["verdict"] != ("accept" if accept else "reject"):
        out.append(("spectral.summary", report["summary"]["verdict"]))
    out += check_exit_code(report, code)
    if accuracy_sq_of is not None:
        inv = pow(a, -1, m)
        for d in (3, 4, 5):
            if d not in acc:
                continue
            sq, u = acc[d]
            inv_sq, v = accuracy_sq_of(m, inv, d)
            if inv_sq != sq or not ref.in_dual_lattice(u[::-1], inv, m) \
                    or not ref.in_dual_lattice(v[::-1], a, m):
                out.append(("spectral.mirror", f"d={d}: nu^2 {sq} vs inverse multiplier {inv_sq}"))
    return out


def check_period(report, code, m, a, c, y0, cap):
    """The walk equals m (Hull-Dobell) or the benchmark's own cycle walk."""
    detail = report["results"][0]["detail"]
    cycle = ref.lcg_cycle_length(m, a, c, y0, cap)
    full = cycle == m
    out = []
    if detail["brute_period"] != cycle:
        out.append(("period.walk", f"walk {detail['brute_period']}, cycle {cycle}"))
    if detail["predicate"] is not full or report["summary"]["full_period"] is not full:
        out.append(("period.predicate", f"predicate {detail['predicate']}, expected {full}"))
    return out + check_exit_code(report, code)


def read_csv(path, d):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0]
    rows = np.array(",".join(lines[1:]).split(","), dtype=np.float64) if len(lines) > 1 else np.empty(0)
    return header, rows.reshape(-1, d)


def check_figures(report, out_dir, values, m, a):
    """CSV rows equal the stream's overlapping pairs and triples; the triples lie on
    the planes of the exact d = 3 shortest dual vector."""
    out = []
    n = values.size
    pairs = np.lib.stride_tricks.sliding_window_view(values, 2)
    triples = np.lib.stride_tricks.sliding_window_view(values, 3)
    for name, d, want in (("pairs.csv", 2, pairs), ("triples.csv", 3, triples)):
        header, rows = read_csv(os.path.join(out_dir, name), d)
        if header != ",".join(f"x{i + 1}" for i in range(d)):
            out.append(("figures.header", f"{name}: {header}"))
        if rows.shape != (n - d + 1, d):
            out.append(("figures.rows", f"{name}: {rows.shape[0]} rows, expected {n - d + 1}"))
        elif np.any(rows != want):
            out.append(("figures.values", f"{name}: rows differ from the stream"))
        elif d == 3:
            radius = math.isqrt(math.ceil((2 * m * m) ** (1 / 3))) + 1
            u, sq = ref.shortest_dual_vector_d3(a, m, radius)
            if sq > radius * radius:
                out.append(("figures.planes", "search box too small"))
            t = rows @ np.array(u, dtype=np.float64)
            dev = np.abs((t - t[0]) - np.round(t - t[0]))
            if dev.max() > PLANE_SLACK:
                out.append(("figures.planes", f"max distance {dev.max():.3g} from the planes of {u}"))
    with open(os.path.join(out_dir, "pairs.svg")) as fh:
        circles = fh.read().count("<circle ")
    stride = -(-(n - 1) // 32768)
    if circles != len(pairs[::stride]):
        out.append(("figures.svg", f"{circles} circles, expected {len(pairs[::stride])}"))
    rows = {r["name"]: r["detail"]["rows"] for r in report["results"]}
    if rows.get("pairs.csv") != n - 1 or rows.get("triples.csv") != n - 2:
        out.append(("figures.report", f"rows {rows}"))
    return out
