"""Each check passes on the program's real output and fails on a broken copy."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest

import checks
import reference as ref
from rngaudit import cli
from rngaudit.generators import LcgParams, make_generator
from rngaudit.spectral import (export_cloud_csv, export_cloud_svg, point_cloud,
                               spectral_accuracy_sq)

N = 20_000


def names(failures):
    return {check for check, _ in failures}


def run(argv):
    report, files, code, _ = cli.run_command(argv)
    for path, write in files:
        write(path)
    return json.loads(cli.canonical_json(report)), code


def nudge(x, rel=1e-6):
    return x * (1 + rel)


# ---------------------------------------------------------------------------
# streams


@pytest.mark.parametrize("descriptor, expected", [
    ("mt:seed=4357", lambda n: ref.mt_stream(4357, n)),
    ("lcg:m=2147483647,a=16807,c=0,seed=12345", lambda n: ref.lcg_stream(2147483647, 16807, 0, 12345, n)),
    ("lcg:m=262144,a=4649,c=819,seed=7", lambda n: ref.lcg_stream(262144, 4649, 819, 7, n)),
    ("wh:seed1=11,seed2=22,seed3=33", lambda n: ref.wh_stream((11, 22, 33), n)),
])
def test_stream_check(descriptor, expected):
    values = make_generator(descriptor).generate(N)
    want = expected(N)
    assert checks.check_stream(values, want) == []
    broken = values.copy()
    broken[N // 2] = np.nextafter(broken[N // 2], 2.0)
    assert names(checks.check_stream(broken, want)) == {"stream"}
    assert names(checks.check_stream(values[:-1], want)) == {"stream"}


def test_wh_seed_folding_matches_the_program():
    g = make_generator("wh:", seed=40000)
    assert ref.wh_seeds(40000) == g._seeds


def test_lcg_jump_check():
    m, a, c, y0 = 2147483647, 742938285, 0, 99
    values = ref.lcg_stream(m, a, c, y0, N)
    assert checks.check_lcg_positions(values, m, a, c, y0) == []
    values[N - 1] = np.nextafter(values[N - 1], 0.0)
    assert names(checks.check_lcg_positions(values, m, a, c, y0)) == {"lcg.jump"}


def test_lcg_states_block_jump_matches_the_recurrence():
    m, a, c, y0 = 1048576, 4649, 819, 5
    y, want = y0, []
    for _ in range(10_000):
        y = (a * y + c) % m
        want.append(y)
    assert ref.lcg_states(m, a, c, y0, 10_000).tolist() == want


# ---------------------------------------------------------------------------
# battery


@pytest.fixture(scope="module")
def battery_case():
    report, code = run(["test", "mt:seed=20240", "-n", str(N)])
    return report, code, ref.mt_stream(20240, N)


def test_battery_check_passes_on_the_program(battery_case):
    report, code, values = battery_case
    # the variance p-value is left out: on this sample it carries the
    # _gamma_p_series fault (wrong by ~1e-7 at df = 19999)
    assert checks.check_battery(report, values, check_variance_p=False) == []
    assert checks.check_exit_code(report, code) == []


@pytest.mark.parametrize("name", ["t-mean", "variance", "levene", "ks", "chi2-uniform",
                                  "permutation", "serial", "birthday-spacings"])
def test_battery_check_catches_a_p_value_off_by_1e6(battery_case, name):
    report, _, values = battery_case
    broken = copy.deepcopy(report)
    row = next(r for r in broken["results"] if r["name"] == name)
    row["p_value"] = nudge(row["p_value"])
    assert f"{name}.p_value" in names(checks.check_battery(broken, values))


@pytest.mark.parametrize("name", ["t-mean", "variance", "ks", "serial", "anderson-darling"])
def test_battery_check_catches_a_wrong_statistic(battery_case, name):
    report, _, values = battery_case
    broken = copy.deepcopy(report)
    row = next(r for r in broken["results"] if r["name"] == name)
    row["statistic"] = row["statistic"] + 1e-8 * max(1.0, abs(row["statistic"]))
    assert f"{name}.statistic" in names(checks.check_battery(broken, values))


def test_battery_check_catches_summary_and_exit_code(battery_case):
    report, code, values = battery_case
    broken = copy.deepcopy(report)
    broken["summary"]["n_rejections"] += 1
    assert "battery.summary" in names(checks.check_battery(broken, values))
    assert names(checks.check_exit_code(report, 1 - code)) == {"exit_code"}


def test_variance_p_value_is_skipped_only_when_asked(battery_case):
    report, _, values = battery_case
    broken = copy.deepcopy(report)
    row = next(r for r in broken["results"] if r["name"] == "variance")
    row["p_value"] = nudge(row["p_value"], 0.1)
    assert checks.check_battery(broken, values, check_variance_p=False) == []


def test_known_faults_show_on_the_full_orbit():
    m = 16384
    report, _ = run(["test", f"lcg:m={m},a=4649,c=819,seed=3", "-n", str(m)])
    values = ref.lcg_stream(m, 4649, 819, 3, m)
    assert names(checks.check_battery(report, values)) <= set(checks.KNOWN_FAULTS)
    assert "ks.p_value" in names(checks.check_battery(report, values))


def test_anderson_darling_reference_matches_the_textbook_form():
    v = ref.mt_stream(5, 2000)
    u = np.sort(v)
    n = u.size
    s = sum((2 * i + 1) * (math.log(u[i]) + math.log(1 - u[n - 1 - i])) for i in range(n))
    assert ref.anderson_darling_a2(v) == pytest.approx(-n - s / n, abs=1e-9)


def test_schema_and_rerun_checks(battery_case):
    report, _, _ = battery_case
    validator = jsonschema.Draft7Validator(cli.REPORT_SCHEMA)
    stamped = dict(report, manifest=dict(report["manifest"], timestamp="2026-01-01T00:00:00Z"))
    assert checks.check_schema(stamped, validator) == []
    assert names(checks.check_schema(dict(stamped, extra=1), validator)) == {"schema"}
    assert checks.check_rerun(stamped, cli.rerun_from_manifest, cli.payload_without_timestamp) == []
    broken = copy.deepcopy(stamped)
    broken["results"][0]["p_value"] = nudge(broken["results"][0]["p_value"])
    assert names(checks.check_rerun(broken, cli.rerun_from_manifest,
                                    cli.payload_without_timestamp)) == {"manifest.rerun"}


def test_sample_file_check(tmp_path):
    path = str(tmp_path / "s.txt")
    desc = "lcg:m=2147483647,a=742938285,c=0,seed=3"
    run(["generate", desc, "-n", "5000", "-o", path])
    want = ref.lcg_stream(2147483647, 742938285, 0, 3, 5000)
    assert checks.check_sample_file(*checks.read_sample_file(path), want, desc) == []
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:100] + lines[101:]) + "\n")
    assert names(checks.check_sample_file(*checks.read_sample_file(path), want, desc)) == {
        "sample_file"}
    header, values = checks.read_sample_file(path)
    assert "sample_file.header" in names(checks.check_sample_file("# x", values, want, desc))


# ---------------------------------------------------------------------------
# seed sweep


@pytest.fixture(scope="module")
def sweep_case():
    report, code = run(["sweep", "mt:", "--seeds", "7,8,9,10", "--paths", "200"])
    return report, code


def test_sweep_checks_pass_on_the_program(sweep_case):
    report, code = sweep_case
    assert checks.check_sweep(report, code, check_closed_form=True) == []
    steps = report["manifest"]["config"]["horizon_steps"]
    assert checks.check_box_muller(report, 8, ref.mt_stream(8, 200 * steps + 64)) == []


def test_sweep_checks_catch_broken_tables(sweep_case):
    report, code = sweep_case
    broken = copy.deepcopy(report)
    detail = broken["results"][0]["detail"]
    detail["delta_pct"][1][0] = nudge(detail["delta_pct"][1][0])
    detail["max_pair"] = detail["max_pair"][::-1]
    detail["seed_effect_flag"] = not detail["seed_effect_flag"]
    assert names(checks.check_sweep(broken, code, False)) == {
        "sweep.delta", "sweep.max_pair", "sweep.flag"}
    assert "exit_code" in names(checks.check_sweep(report, 1 - code, False))


def test_sweep_checks_catch_a_moved_estimate(sweep_case):
    report, _ = sweep_case
    broken = copy.deepcopy(report)
    row = broken["results"][0]["detail"]["per_seed"][0]
    row["estimate"] += 6 * row["standard_error"]
    assert "sweep.closed_form" in names(checks.check_sweep(broken, 0, True))
    steps = report["manifest"]["config"]["horizon_steps"]
    ulp = copy.deepcopy(report)
    row = ulp["results"][0]["detail"]["per_seed"][0]
    row["estimate"] = float(np.nextafter(row["estimate"], 1.0))
    assert names(checks.check_box_muller(ulp, 7, ref.mt_stream(7, 200 * steps + 64))) == {
        "sweep.box_muller"}


def test_closed_form_matches_a_large_simulation():
    config = {"paths": 0, "horizon_steps": 80, "drift": 0.0002, "volatility": 0.016,
              "discount_rate": 0.0002, "strike_ratio": 0.93}
    z = np.random.default_rng(1).standard_normal((200_000, 80))
    log_s = (0.0002 - 0.5 * 0.016**2) * 80 + 0.016 * z.sum(axis=1)
    sim = math.exp(-0.016) * np.maximum(0.93 - np.exp(log_s), 0).mean()
    assert ref.guarantee_value(config) == pytest.approx(sim, rel=0.02)


# ---------------------------------------------------------------------------
# lattices


def accuracy_sq_of(m, a, d):
    return spectral_accuracy_sq(LcgParams(m, a), d)


@pytest.fixture(scope="module")
def spectral_case():
    report, code = run(["spectral", "lcg:m=2147483647,a=16807,c=0,seed=1", "--dmax", "6"])
    return report, code


def test_spectral_check_passes_on_the_program(spectral_case):
    report, code = spectral_case
    assert checks.check_spectral(report, code, 2147483647, 16807, accuracy_sq_of) == []


def test_spectral_check_catches_a_vector_outside_the_dual_lattice(spectral_case):
    report, code = spectral_case
    broken = copy.deepcopy(report)
    detail = broken["results"][1]["detail"]
    detail["shortest_vector"][0] += 1
    detail["accuracy_sq"] = sum(x * x for x in detail["shortest_vector"])
    broken["results"][1]["statistic"] = math.sqrt(detail["accuracy_sq"])
    assert "spectral.lattice" in names(checks.check_spectral(broken, code, 2147483647, 16807))


def test_spectral_check_catches_norm_order_bound_and_mirror(spectral_case):
    report, code = spectral_case
    m, a = 2147483647, 16807
    broken = copy.deepcopy(report)
    broken["results"][2]["detail"]["accuracy_sq"] += 1
    assert "spectral.norm" in names(checks.check_spectral(broken, code, m, a))
    # 40 times the d = 4 shortest vector: still in the lattice, but longer
    # than nu_3 and above Hermite's bound
    broken = copy.deepcopy(report)
    d4 = broken["results"][2]
    d4["detail"]["shortest_vector"] = [40 * x for x in d4["detail"]["shortest_vector"]]
    d4["detail"]["accuracy_sq"] = sum(x * x for x in d4["detail"]["shortest_vector"])
    d4["statistic"] = math.sqrt(d4["detail"]["accuracy_sq"])
    got = names(checks.check_spectral(broken, code, m, a))
    assert {"spectral.monotone", "spectral.hermite"} <= got

    def wrong_mirror(m_, a_, d):
        sq, vec = accuracy_sq_of(m_, a_, d)
        return sq + 1, vec

    assert "spectral.mirror" in names(checks.check_spectral(report, code, m, a, wrong_mirror))


def test_period_check():
    m, a, c = 16384, 4651, 819
    report, code = run(["period", f"lcg:m={m},a={a},c={c},seed=9", "--brute-cap", str(2 * m)])
    assert checks.check_period(report, code, m, a, c, 9, 2 * m) == []
    broken = copy.deepcopy(report)
    broken["results"][0]["detail"]["brute_period"] += 2
    broken["results"][0]["detail"]["predicate"] = True
    assert names(checks.check_period(broken, code, m, a, c, 9, 2 * m)) == {
        "period.walk", "period.predicate"}


def test_figures_check(tmp_path):
    m, a, c, s = 4096, 1229, 1, 17
    report, _ = run(["figures", f"lcg:m={m},a={a},c={c},seed={s}", "--out-dir", str(tmp_path)])
    values = ref.lcg_stream(m, a, c, s, m)
    assert checks.check_figures(report, str(tmp_path), values, m, a) == []
    path = tmp_path / "triples.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert names(checks.check_figures(report, str(tmp_path), values, m, a)) == {"figures.rows"}
    lines[7] = ",".join(repr(float(x) + 1e-7) for x in values[6:9])
    path.write_text("\n".join(lines) + "\n")
    assert names(checks.check_figures(report, str(tmp_path), values, m, a)) == {"figures.values"}
    svg = tmp_path / "pairs.svg"
    svg.write_text(svg.read_text().replace("<circle ", "<!-- -->", 1))
    assert "figures.svg" in names(checks.check_figures(report, str(tmp_path), values, m, a))


def test_figures_check_catches_points_off_the_planes(tmp_path):
    # a cloud that matches its own stream but is not an LCG's: no planes
    m, a = 4096, 1229
    values = ref.mt_stream(1, m)
    report, _ = run(["figures", "mt:seed=1", "--out-dir", str(tmp_path)])
    for name, d in (("pairs.csv", 2), ("triples.csv", 3)):
        export_cloud_csv(point_cloud(values, d), str(tmp_path / name))
    export_cloud_svg(point_cloud(values, 2), str(tmp_path / "pairs.svg"))
    for r in report["results"]:
        r["detail"]["rows"] = m - (2 if r["name"] == "triples.csv" else 1)
    assert names(checks.check_figures(report, str(tmp_path), values, m, a)) == {"figures.planes"}


def test_plane_check_catches_a_point_off_the_planes():
    m, a = 4096, 1229
    radius = math.isqrt(math.ceil((2 * m * m) ** (1 / 3))) + 1
    u, sq = ref.shortest_dual_vector_d3(a, m, radius)
    assert sq <= radius * radius and ref.in_dual_lattice(u, a, m)
    assert sq == accuracy_sq_of(m, a, 3)[0]


def test_short_period_generator_must_be_rejected(battery_case):
    import run as bench_run

    report, code, _ = battery_case
    op = {"kind": "test", "argv": ["test", "mt:seed=20240"], "stream": ["mt", 20240], "n": N,
          "expect_reject": True}
    got = names(bench_run.RoundChecker("audit").check_op(op, report, code))
    assert got == {"battery.short_period"}
