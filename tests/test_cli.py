"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import re

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
from rngaudit.generators import load_sample, make_generator

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
        assert "wrote 50 values" in capsys.readouterr().out

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
              "--tuple-mode", "overlapping", "--levene-groups", "5", "--gof-bins", "50",
              "--bonferroni", "--quiet", "--json", str(out)])
        assert _load_report(out)["manifest"]["config"] == {
            "tests": ["uniformity", "serial"], "alpha": 0.05, "permutation_k": 4,
            "serial_d": 4, "serial_l": 3, "birthday_n": 256, "birthday_k": 65536,
            "tuple_mode": "overlapping", "levene_groups": 5, "gof_bins": 50,
            "bonferroni": True,
        }

    def test_invalid_battery_flag_is_usage_error(self, capsys):
        assert main(["test", "mt:", "-n", "20000", "--serial-d", "1",
                     "--quiet"]) == EXIT_USAGE


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
        assert "Seed sweep" in text
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
        assert "full period = True" in text

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
        assert "bound" in report["results"][0]["detail"]["factorization_error"]

    def test_non_congruential_descriptor_is_usage_error(self):
        assert main(["period", "mt:seed=1", "--quiet"]) == EXIT_USAGE


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

    def test_default_descriptor_is_the_poor_multiplier(self):
        assert FIGURE_DESCRIPTOR == POOR

    def test_unwritable_directory_is_io_error(self, tmp_path, capsys):
        code = main(["figures", SMALL, "--out-dir",
                     str(tmp_path / "missing" / "deep"), "--quiet"])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err


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

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", TINY, "-n", "4", "--wat"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rngaudit" in capsys.readouterr().out
