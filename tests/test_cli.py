"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import warnings

import jsonschema
import pytest

from rngaudit.cli import (
    EXIT_IO,
    EXIT_PASS,
    EXIT_REJECT,
    EXIT_USAGE,
    FIGURE_DESCRIPTOR,
    REPORT_SCHEMA,
    REPORT_SCHEMA_ID,
    canonical_json,
    main,
    payload_without_timestamp,
    rerun_from_manifest,
    run_command,
    _parse_seeds,
)
from rngaudit.generators import make_generator
from rngaudit.io import load_sample

POOR = "lcg:m=262144,a=4649,c=819,seed=1"
GOOD = "lcg:m=2147483647,a=742938285,c=0,seed=1"
TINY = "lcg:m=10,a=7,c=7,seed=7"
SMALL = "lcg:m=1024,a=389,c=1,seed=1"
BIG_SEMIPRIME = "lcg:m=4951760154835678088235319297,a=3,c=1,seed=1"

TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def _load_report(path):
    report = json.loads(path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


# ---------------------------------------------------------------------------
# seed list parsing


class TestParseSeeds:
    def test_inclusive_range(self):
        assert _parse_seeds("1..5") == [1, 2, 3, 4, 5]

    def test_comma_list(self):
        assert _parse_seeds("4, 8,15") == [4, 8, 15]

    def test_single_seed_rejected(self):
        with pytest.raises(ValueError, match="two seeds"):
            _parse_seeds("7")

    @pytest.mark.parametrize("text", ["1..3,5", "1..x", "a,b", "1.5,2"])
    def test_malformed_list_names_the_syntax(self, text):
        with pytest.raises(ValueError, match=r"--seeds takes LO\.\.HI or a comma list"):
            _parse_seeds(text)


# ---------------------------------------------------------------------------
# generate


class TestGenerate:
    def test_stdout_values(self, capsys):
        code = main(["generate", TINY, "-n", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_PASS
        assert out[0] == f"# rngaudit-sample v1 {TINY}"
        assert out[1:] == ["0.6", "0.9", "0.0", "0.7"]

    def test_stdout_bytes_equal_the_sample_file(self, tmp_path, capsys):
        # more values than one text block, so block edges are covered
        target = tmp_path / "sample.txt"
        assert main(["generate", "mt:seed=9", "-n", "9000", "-o", str(target)]) == EXIT_PASS
        capsys.readouterr()
        assert main(["generate", "mt:seed=9", "-n", "9000"]) == EXIT_PASS
        assert capsys.readouterr().out == target.read_text()

    def test_stdout_values_are_an_output_job(self, capsys):
        # run_command prints nothing; the values go out when the job runs
        _, files, code, args = run_command(["generate", TINY, "-n", "4"])
        assert (code, args.command, [p for p, _ in files]) == (EXIT_PASS, "generate", ["stdout"])
        assert capsys.readouterr().out == ""
        files[0][1]("stdout")
        assert capsys.readouterr().out.splitlines()[1:] == ["0.6", "0.9", "0.0", "0.7"]

    def test_quiet_still_prints_the_payload(self, capsys):
        code = main(["generate", TINY, "-n", "2", "--quiet"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_PASS
        assert len(out) == 3  # header plus both values

    def test_file_output_round_trips(self, tmp_path, capsys):
        target = tmp_path / "sample.txt"
        code = main(["generate", "mt:seed=9", "-n", "50", "-o", str(target)])
        assert code == EXIT_PASS
        loaded = load_sample(target)
        expected = make_generator("mt:seed=9").generate(50)
        assert list(loaded.values) == list(expected)
        assert loaded.provenance == "mt:seed=9"
        assert capsys.readouterr().out.endswith(f"=> pass (count=50, output={target})\n")

    def test_rejects_nonpositive_count(self, capsys):
        code = main(["generate", TINY, "-n", "0"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_rejects_malformed_descriptor(self, capsys):
        assert main(["generate", "xyz:m=1", "-n", "4"]) == EXIT_USAGE

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["generate", TINY, "-n", "4", "--quiet", "--json", str(out)])
        report = _load_report(out)
        assert report["schema"] == REPORT_SCHEMA_ID
        assert report["manifest"]["command"] == "generate"
        assert report["manifest"]["descriptor"] == TINY
        assert report["summary"]["count"] == 4
        assert TIMESTAMP_RE.match(report["manifest"]["timestamp"])

    def test_report_says_where_the_sample_went(self, tmp_path, monkeypatch, capsys):
        # null for stdout, the path for a file, even a file named "stdout"
        monkeypatch.chdir(tmp_path)
        outputs = []
        for extra in ([], ["-o", "stdout"], ["-o", "s.txt"]):
            main(["generate", TINY, "-n", "3", *extra, "--quiet", "--json", "r.json"])
            report = _load_report(tmp_path / "r.json")  # the schema takes null
            outputs.append({report["manifest"]["config"]["output"],
                            report["results"][0]["detail"]["output"],
                            report["summary"]["output"]})
        assert outputs == [{None}, {"stdout"}, {"s.txt"}]
        assert (tmp_path / "stdout").read_text() == (tmp_path / "s.txt").read_text()


# ---------------------------------------------------------------------------
# test (the battery)


class TestBatteryCommand:
    def test_good_generator_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["test", "mt:seed=1", "-n", "20000", "--json", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "t-mean" in text
        assert "=> pass" in text
        report = _load_report(out)
        assert report["summary"]["verdict"] == "pass"
        assert report["summary"]["n_rejections"] == 0
        assert len(report["results"]) == 9

    def test_degenerate_generator_rejected(self, capsys):
        code = main(["test", TINY, "-n", "20000", "--quiet"])
        assert code == EXIT_REJECT

    def test_error_without_rejection(self, tmp_path):
        # 5000 values: too few birthday blocks, everything else passes
        out = tmp_path / "r.json"
        code = main(["test", "mt:seed=1", "-n", "5000", "--quiet",
                     "--json", str(out)])
        assert code == EXIT_USAGE
        report = _load_report(out)
        assert report["summary"]["verdict"] == "error"
        assert report["summary"]["n_errors"] == 1
        error_rows = [r for r in report["results"] if r["verdict"] == "error"]
        assert error_rows[0]["name"] == "birthday"
        assert error_rows[0]["statistic"] is None

    def test_rejection_takes_precedence_over_error(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["test", TINY, "-n", "5000", "--quiet", "--json", str(out)])
        assert code == EXIT_REJECT
        assert _load_report(out)["summary"]["verdict"] == "reject"

    def test_sample_file_source(self, tmp_path):
        sample = tmp_path / "s.txt"
        report_path = tmp_path / "r.json"
        main(["generate", "mt:seed=2", "-n", "20000", "-o", str(sample), "--quiet"])
        code = main(["test", str(sample), "--quiet", "--json", str(report_path)])
        report = _load_report(report_path)
        assert code in (EXIT_PASS, EXIT_REJECT)
        assert report["manifest"]["descriptor"] == "mt:seed=2"
        assert report["summary"]["sample_size"] == 20000

    def test_header_that_does_not_parse_is_no_descriptor(self, tmp_path):
        sample = tmp_path / "bad-seed.txt"
        sample.write_text("# rngaudit-sample v1 mt:seed=abc\n"
                          + "".join(f"{i / 1000}\n" for i in range(1000)))
        out = tmp_path / "r.json"
        main(["test", str(sample), "--tests", "uniformity", "--quiet",
              "--json", str(out)])
        assert _load_report(out)["manifest"]["descriptor"] is None

    def test_headerless_file_has_no_descriptor(self, tmp_path):
        sample = tmp_path / "ext.txt"
        sample.write_text("".join(f"{i / 1000}\n" for i in range(1000)))
        out = tmp_path / "r.json"
        main(["test", str(sample), "--tests", "uniformity", "--quiet",
              "--json", str(out)])
        assert _load_report(out)["manifest"]["descriptor"] is None

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["test", str(tmp_path / "nope.txt"), "--quiet"])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["xyz:seed=1", "LCG:m=10,a=7,c=7,seed=7"])
    def test_unknown_descriptor_kind_is_usage_error(self, source, capsys):
        code = main(["test", source, "-n", "1000", "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unknown generator kind" in err and "lcg, wh, mt" in err

    def test_existing_file_with_kind_head_is_a_sample(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run:1.txt").write_text("".join(f"{i / 1000}\n" for i in range(1000)))
        out = tmp_path / "r.json"
        main(["test", "run:1.txt", "--tests", "uniformity", "--quiet", "--json", str(out)])
        assert _load_report(out)["summary"]["sample_size"] == 1000

    def test_non_numeric_line_is_usage_error(self, tmp_path, capsys):
        sample = tmp_path / "bad.txt"
        sample.write_text("# header\n0.25\nzero point five\n")
        code = main(["test", str(sample), "--quiet"])
        assert code == EXIT_USAGE
        assert f"{sample}:3:" in capsys.readouterr().err

    def test_value_that_rounds_to_one_is_usage_error(self, tmp_path, capsys):
        sample = tmp_path / "bad.txt"
        sample.write_text("# header\n0.25\n0.99999999999999999\n")
        code = main(["test", str(sample), "--quiet"])
        assert code == EXIT_USAGE
        assert f"{sample}:3: outside [0, 1): '0.99999999999999999'" in capsys.readouterr().err

    def test_alpha_flows_into_every_result(self, tmp_path):
        out = tmp_path / "r.json"
        main(["test", "mt:seed=1", "-n", "20000", "--alpha", "0.2",
              "--quiet", "--json", str(out)])
        report = _load_report(out)
        assert report["manifest"]["config"]["alpha"] == 0.2
        assert all(r["alpha"] == 0.2 for r in report["results"])

    def test_family_selection(self, tmp_path):
        out = tmp_path / "r.json"
        main(["test", "mt:seed=1", "-n", "20000", "--tests", "serial",
              "--quiet", "--json", str(out)])
        report = _load_report(out)
        assert [r["name"] for r in report["results"]] == ["serial"]

    def test_every_battery_flag_reaches_the_config(self, tmp_path):
        out = tmp_path / "r.json"
        main(["test", "mt:seed=1", "-n", "20000", "--tests", "uniformity, serial",
              "--alpha", "0.05", "--permutation-k", "4", "--serial-d", "4",
              "--serial-l", "3", "--birthday-n", "256", "--birthday-k", "65536",
              "--levene-groups", "5", "--gof-bins", "50",
              "--bonferroni", "--quiet", "--json", str(out)])
        assert _load_report(out)["manifest"]["config"] == {
            "tests": ["uniformity", "serial"], "alpha": 0.05, "permutation_k": 4,
            "serial_d": 4, "serial_l": 3, "birthday_n": 256, "birthday_k": 65536,
            "levene_groups": 5, "gof_bins": 50,
            "bonferroni": True,
        }

    def test_error_record_prints_its_reason(self, capsys):
        code = main(["test", "mt:seed=1", "-n", "20000", "--tests", "uniformity,nosuch"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_USAGE
        assert out[-3].split() == ["nosuch", "statistic=n/a", "p=n/a", "error"]
        assert out[-2] == "  error: unknown test 'nosuch'"

    def test_invalid_battery_flag_is_usage_error(self, capsys):
        assert main(["test", "mt:", "-n", "20000", "--serial-d", "1",
                     "--quiet"]) == EXIT_USAGE

    def test_birthday_cells_beyond_the_int64_cast_are_a_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast warning among them
            code = main(["test", "mt:seed=1", "-n", "20000", "--tests", "birthday",
                         "--birthday-k", "100000000000000000000"])
        assert code == EXIT_USAGE
        assert "birthday_k must lie in [2, 2**62]" in capsys.readouterr().err

    def test_empty_family_list_is_usage_error(self, capsys):
        assert main(["test", "mt:seed=1", "-n", "1000", "--tests", ",",
                     "--quiet"]) == EXIT_USAGE
        assert "at least one test family" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectral


class TestSpectralCommand:
    def test_poor_multiplier_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["spectral", POOR, "--json", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_REJECT
        assert "=> reject" in text
        report = _load_report(out)
        assert [r["name"] for r in report["results"]] == [
            f"spectral-d{d}" for d in (2, 3, 4, 5, 6)
        ]
        assert all(r["verdict"] == "reject" for r in report["results"])
        assert report["results"][0]["detail"]["accuracy_sq"] == 168328

    def test_good_multiplier_accepted(self, capsys):
        assert main(["spectral", GOOD, "--quiet"]) == EXIT_PASS

    def test_non_congruential_descriptor_is_usage_error(self, capsys):
        code = main(["spectral", "mt:seed=1", "--quiet"])
        assert code == EXIT_USAGE
        assert "lcg:" in capsys.readouterr().err

    def test_dimensions_beyond_rule_are_informational(self, tmp_path):
        out = tmp_path / "r.json"
        main(["spectral", SMALL, "--dmax", "8", "--quiet", "--json", str(out)])
        report = _load_report(out)
        by_name = {r["name"]: r for r in report["results"]}
        assert by_name["spectral-d7"]["verdict"] == "info"
        assert by_name["spectral-d8"]["verdict"] == "info"
        assert by_name["spectral-d7"]["detail"]["threshold"] is None

    def test_bad_dmax_is_usage_error(self):
        assert main(["spectral", SMALL, "--dmax", "1", "--quiet"]) == EXIT_USAGE

    def test_cloud_export(self, tmp_path):
        stem = str(tmp_path / "cloud")
        code = main(["spectral", SMALL, "--cloud", "2", "--cloud-out", stem,
                     "--quiet"])
        assert code in (EXIT_PASS, EXIT_REJECT)
        csv = tmp_path / "cloud-d2.csv"
        svg = tmp_path / "cloud-d2.svg"
        assert csv.exists() and svg.exists()
        assert len(csv.read_text().splitlines()) == 1024  # header + 1023 pairs

    @pytest.mark.parametrize("d", [2, 3])
    def test_cloud_files_are_reported_with_their_rows(self, tmp_path, capsys, d):
        stem = str(tmp_path / "cloud")
        out = tmp_path / "r.json"
        code = main(["spectral", SMALL, "--cloud", str(d), "--cloud-out", stem,
                     "--json", str(out)])
        text = capsys.readouterr().out
        report = _load_report(out)
        written = {f"{stem}-d{d}.csv": len((tmp_path / f"cloud-d{d}.csv").read_text()
                                          .splitlines()) - 1}
        if d == 2:
            written[f"{stem}-d2.svg"] = (tmp_path / "cloud-d2.svg").read_text().count("<circle")
        files = [r for r in report["results"] if "path" in r["detail"]]
        assert {r["detail"]["path"]: r["detail"]["rows"] for r in files} == written
        assert all(r["name"] == r["detail"]["path"].rsplit("/", 1)[-1]
                   and r["statistic"] == r["detail"]["rows"]
                   and r["verdict"] == "pass" for r in files)
        assert report["summary"]["files"] == list(written)
        for path, rows in written.items():
            assert f"wrote {path} ({rows} rows)" in text
        # file records leave the verdict and exit code to the dimensions
        assert report["summary"]["verdict"] == "reject"
        assert code == EXIT_REJECT
        assert text.splitlines()[-1].startswith("=> reject (")

    def test_three_dimensional_cloud_is_csv_only(self, tmp_path):
        stem = str(tmp_path / "c")
        main(["spectral", SMALL, "--cloud", "3", "--cloud-out", stem, "--quiet"])
        assert (tmp_path / "c-d3.csv").exists()
        assert not (tmp_path / "c-d3.svg").exists()


# ---------------------------------------------------------------------------
# sweep


class TestSweepCommand:
    def test_robust_generator_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["sweep", "mt:", "--seeds", "1,2,3", "--paths", "200",
                     "--steps", "20", "--json", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_PASS
        assert text.startswith("seed-effect ")
        assert "=> pass" in text
        report = _load_report(out)
        assert report["summary"]["verdict"] == "pass"
        assert report["manifest"]["config"]["paths"] == 200
        assert report["results"][0]["name"] == "seed-effect"

    def test_seed_sensitive_generator_flagged(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["sweep", POOR, "--seeds", "13,29", "--quiet",
                     "--json", str(out)])
        assert code == EXIT_REJECT
        report = _load_report(out)
        assert report["summary"]["verdict"] == "reject"
        assert report["results"][0]["detail"]["seed_effect_flag"] is True

    def test_zero_volatility_has_no_seed_effect(self):
        code = main(["sweep", "mt:", "--seeds", "1,2", "--paths", "50",
                     "--steps", "10", "--vol", "0", "--strike", "1.2",
                     "--quiet"])
        assert code == EXIT_PASS

    def test_single_seed_is_usage_error(self, capsys):
        assert main(["sweep", "mt:", "--seeds", "5", "--quiet"]) == EXIT_USAGE

    def test_malformed_seed_list_is_usage_error(self, capsys):
        assert main(["sweep", "mt:", "--seeds", "1..3,5", "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--seeds takes LO..HI or a comma list" in err
        assert "invalid literal" not in err

    def test_non_finite_model_parameter_is_usage_error(self, capsys):
        code = main(["sweep", "mt:", "--seeds", "1,2", "--paths", "4", "--steps", "2",
                     "--vol", "nan"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "volatility must be finite" in err
        assert "pass" not in out

    @pytest.mark.parametrize("flag,value", [("--drift", "1000"), ("--discount", "-1000")])
    def test_model_overflow_is_usage_error(self, capsys, flag, value):
        code = main(["sweep", "mt:", "--seeds", "1,2", "--paths", "4", "--steps", "2",
                     flag, value])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.count("\n") == 1 and err.startswith("error: the model overflows")
        assert "Traceback" not in err
        assert "pass" not in out

    def test_single_path_is_usage_error(self, capsys):
        # one path has no standard error, so it cannot judge a seed effect
        code = main(["sweep", "mt:", "--seeds", "1..6", "--paths", "1", "--quiet"])
        assert code == EXIT_USAGE
        assert "paths must be >= 2" in capsys.readouterr().err

    def test_infinite_delta_reads_n_a(self, tmp_path, capsys):
        # seeds 1 and 4 pay nothing on 13 paths, so the deltas against them
        # are infinite: null in the report, n/a in the summary
        out = tmp_path / "r.json"
        code = main(["sweep", "wh:", "--seeds", "1..4", "--paths", "13", "--steps", "7",
                     "--json", str(out)])
        assert code == EXIT_PASS
        text = capsys.readouterr().out.splitlines()
        assert text[0].split() == ["seed-effect", "statistic=n/a", "p=n/a", "pass"]
        assert "max_abs_relative_delta=n/a" in text[-1]
        report = _load_report(out)
        assert report["summary"]["max_abs_relative_delta"] is None
        assert report["summary"]["max_pair"] == [2, 1]

    def test_every_model_flag_reaches_the_config(self, tmp_path):
        out = tmp_path / "r.json"
        main(["sweep", "mt:", "--seeds", "1,2", "--paths", "20", "--steps", "3",
              "--drift", "0.001", "--vol", "0.02", "--discount", "0.003",
              "--strike", "0.9", "--quiet", "--json", str(out)])
        assert _load_report(out)["manifest"]["config"] == {
            "paths": 20, "horizon_steps": 3, "drift": 0.001, "volatility": 0.02,
            "discount_rate": 0.003, "strike_ratio": 0.9,
        }


# ---------------------------------------------------------------------------
# period


class TestPeriodCommand:
    def test_full_period_generator(self, capsys):
        code = main(["period", POOR])
        text = capsys.readouterr().out
        assert code == EXIT_PASS
        assert text.endswith("=> pass (full_period=True, modulus=262144)\n")

    def test_short_period_generator(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["period", TINY, "--quiet", "--json", str(out)])
        assert code == EXIT_REJECT
        assert _load_report(out)["summary"]["full_period"] is False

    def test_brute_force_walk_reported(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["period", TINY, "--brute-cap", "100", "--quiet",
                     "--json", str(out)])
        assert code == EXIT_REJECT
        result = _load_report(out)["results"][0]
        assert result["statistic"] == 4.0
        assert result["detail"]["brute_period"] == 4

    def test_unfactorable_modulus_is_undecidable(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["period", BIG_SEMIPRIME, "--factor-bound", "100000",
                     "--json", str(out)])
        assert code == EXIT_USAGE
        report = _load_report(out)
        assert report["summary"]["verdict"] == "error"
        assert report["summary"]["full_period"] is None
        assert "bound" in report["results"][0]["detail"]["error"]
        assert "factorization_error" not in report["results"][0]["detail"]
        # the summary says why, as for any error record
        assert "  error: cofactor " in capsys.readouterr().out

    def test_non_congruential_descriptor_is_usage_error(self):
        assert main(["period", "mt:seed=1", "--quiet"]) == EXIT_USAGE

    # c=1: bound**2 = 25 would certify the cofactor 9 of m = 18 as a prime;
    # c=3: gcd(c, m) = 3 decides the predicate before any factoring
    @pytest.mark.parametrize("spec", ["lcg:m=18,a=7,c=1,seed=0",
                                      "lcg:m=18,a=7,c=3,seed=0"])
    def test_negative_factor_bound_is_usage_error(self, spec, capsys):
        code = main(["period", spec, "--factor-bound", "-5", "--quiet"])
        assert code == EXIT_USAGE
        assert "bound must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figures


class TestFiguresCommand:
    def test_artifacts_written(self, tmp_path, capsys):
        code = main(["figures", SMALL, "--out-dir", str(tmp_path)])
        text = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "wrote" in text
        pairs_csv = tmp_path / "pairs.csv"
        assert pairs_csv.exists()
        assert (tmp_path / "pairs.svg").exists()
        assert (tmp_path / "triples.csv").exists()
        assert len(pairs_csv.read_text().splitlines()) == 1024
        assert len((tmp_path / "triples.csv").read_text().splitlines()) == 1023

    def test_report_row_counts(self, tmp_path):
        out = tmp_path / "r.json"
        main(["figures", SMALL, "--out-dir", str(tmp_path), "--quiet",
              "--json", str(out)])
        report = _load_report(out)
        rows = {r["name"]: r["detail"]["rows"] for r in report["results"]}
        assert rows == {"pairs.csv": 1023, "pairs.svg": 1023, "triples.csv": 1022}

    def test_svg_rows_are_the_points_drawn(self, tmp_path):
        # 39999 pairs thin by a stride of 2 to 20000 points, not to the cap of 32768
        out = tmp_path / "r.json"
        main(["figures", "lcg:m=40000,a=4001,c=1,seed=1", "--out-dir", str(tmp_path),
              "--quiet", "--json", str(out)])
        rows = {r["name"]: r["detail"]["rows"] for r in _load_report(out)["results"]}
        assert rows["pairs.svg"] == (tmp_path / "pairs.svg").read_text().count("<circle")
        assert rows == {"pairs.csv": 39999, "pairs.svg": 20000, "triples.csv": 39998}

    def test_default_descriptor_is_the_poor_multiplier(self):
        assert FIGURE_DESCRIPTOR == POOR

    def test_unwritable_directory_is_io_error(self, tmp_path, capsys):
        code = main(["figures", SMALL, "--out-dir",
                     str(tmp_path / "missing" / "deep"), "--quiet"])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_unwritable_target_leaves_no_temp_files(self, tmp_path, capsys):
        # triples.csv is a directory, so its rename fails once both CSVs
        # are written to their temporary files
        (tmp_path / "triples.csv").mkdir()
        code = main(["figures", SMALL, "--out-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".rngaudit-tmp-")]
        assert os.listdir(tmp_path / "triples.csv") == []


# ---------------------------------------------------------------------------
# reproducibility


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", TINY, "-n", "6"],
            ["test", "mt:seed=1", "-n", "20000"],
            ["sweep", "mt:", "--seeds", "1,2", "--paths", "100", "--steps", "10"],
            ["period", TINY],
            ["spectral", SMALL, "--dmax", "4"],
        ],
    )
    def test_rerun_from_manifest_is_bit_identical(self, argv):
        report, _, _, _ = run_command(argv)
        rebuilt = rerun_from_manifest(report["manifest"])
        assert canonical_json(rebuilt) == canonical_json(
            payload_without_timestamp(report)
        )

    def test_written_report_is_canonical(self, tmp_path):
        out = tmp_path / "r.json"
        main(["test", "mt:seed=1", "-n", "20000", "--quiet", "--json", str(out)])
        text = out.read_text()
        assert text == canonical_json(json.loads(text)) + "\n"

    def test_rerun_matches_written_report(self, tmp_path):
        out = tmp_path / "r.json"
        main(["sweep", "mt:", "--seeds", "1,2", "--paths", "100",
              "--steps", "10", "--quiet", "--json", str(out)])
        report = _load_report(out)
        rebuilt = rerun_from_manifest(report["manifest"])
        assert rebuilt == payload_without_timestamp(report)


# ---------------------------------------------------------------------------
# written files and imports


class TestWrittenFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_files_take_the_umask_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            main(["generate", TINY, "-n", "4", "--quiet", "-o", str(tmp_path / "s.txt"),
                  "--json", str(tmp_path / "g.json")])
            main(["figures", SMALL, "--out-dir", str(tmp_path), "--quiet",
                  "--json", str(tmp_path / "f.json")])
        finally:
            os.umask(old)
        names = ["s.txt", "g.json", "pairs.csv", "pairs.svg", "triples.csv", "f.json"]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        modes = {n: stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in names}
        assert modes == dict.fromkeys(names, 0o666 & ~umask)

    def test_cli_import_leaves_numpy_random_out(self):
        # importing numpy.random raises peak RSS by some 6 MB, more than the
        # 5% a sweep may move it; see the MT19937 docstring
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rngaudit.cli; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# usage errors


class TestUsage:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["generate", TINY, "-n", "4"],
        ["spectral", SMALL],
        ["sweep", "mt:", "--seeds", "1,2"],
        ["period", TINY],
        ["figures"],
    ])
    def test_alpha_belongs_to_test_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alpha", "0.05", "--quiet"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", TINY, "-n", "4", "--wat"])
        assert exc.value.code == 2

    def test_tuple_mode_flag_is_gone(self, capsys):
        # overlapping tuples broke the chi-square law; only disjoint ones remain
        with pytest.raises(SystemExit) as exc:
            main(["test", "mt:seed=1", "--tuple-mode", "overlapping"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tuple-mode" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rngaudit" in capsys.readouterr().out
