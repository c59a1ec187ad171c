"""Command-line front end for batch randomness audits.

Subcommands cover the whole toolbox: ``generate`` writes sample files,
``test`` runs the statistical battery, ``spectral`` runs the lattice
test, ``sweep`` runs the seed-sensitivity harness, ``period`` checks the
full-period property, and ``figures`` exports the point-cloud artifacts.

Every command can emit a machine-readable JSON report (``--json``)
carrying a manifest (tool version, argv echo, config, timestamp) next to
the results, so a report is reproducible from its own manifest:
re-running the recorded argv on the same numpy build rebuilds the
payload bit for bit (the timestamp is the only field outside that
guarantee).

Exit codes form a stable contract for CI gates:

    0  pass
    1  statistical rejection or seed-effect flag
    2  usage error (bad descriptor, undecidable within bounds, ...)
    3  I/O error
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .battery import BatteryConfig, run_battery
from .generators import (
    DEFAULT_FACTOR_BOUND,
    GENERATOR_KINDS,
    FactorizationError,
    Lcg,
    brute_force_period,
    full_period_predicate,
    load_sample,
    make_generator,
    sample_lines,
    save_sample,
    _atomic_write_text,
)
from .seedlab import ToyModelConfig, seed_sweep
from .spectral import (
    MAX_DIM,
    export_cloud_csv,
    export_cloud_svg,
    point_cloud,
    spectral_accept,
)
from .stats import VERDICTS, TestResult

__all__ = [
    "REPORT_SCHEMA_ID",
    "REPORT_SCHEMA",
    "FIGURE_DESCRIPTOR",
    "build_parser",
    "main",
    "entrypoint",
    "canonical_json",
    "payload_without_timestamp",
    "rerun_from_manifest",
]

REPORT_SCHEMA_ID = "rngaudit-report/v1"

# Published contract for every JSON report this tool emits (draft-07).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": REPORT_SCHEMA_ID,
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "manifest", "results", "summary"],
    "properties": {
        "schema": {"const": REPORT_SCHEMA_ID},
        "manifest": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "tool_version",
                "command",
                "argv",
                "descriptor",
                "config",
                "timestamp",
            ],
            "properties": {
                "tool_version": {"type": "string"},
                "command": {"type": "string"},
                "argv": {"type": "array", "items": {"type": "string"}},
                "descriptor": {"type": ["string", "null"]},
                "config": {"type": "object"},
                "timestamp": {"type": "string"},
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": [
                    "name",
                    "statistic",
                    "p_value",
                    "alpha",
                    "verdict",
                    "detail",
                ],
                "properties": {
                    "name": {"type": "string"},
                    "statistic": {"type": ["number", "null"]},
                    "p_value": {"type": ["number", "null"]},
                    "alpha": {"type": ["number", "null"]},
                    "verdict": {"enum": list(VERDICTS)},
                    "detail": {"type": "object"},
                },
            },
        },
        "summary": {"type": "object"},
    },
}

# Small-period generator whose lattice artifacts the figure exports show.
FIGURE_DESCRIPTOR = "lcg:m=262144,a=4649,c=819,seed=1"

EXIT_PASS = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The one map from a report's summary verdict to the process exit code.
_EXIT_CODES = {"pass": EXIT_PASS, "accept": EXIT_PASS, "reject": EXIT_REJECT,
               "error": EXIT_USAGE}

_DESCRIPTOR_PREFIXES = tuple(f"{kind}:" for kind in GENERATOR_KINDS)
# How any descriptor starts, whether or not its kind is known.
_KIND_HEAD = re.compile(r"[A-Za-z]\w*:")


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for JSON output.

    Non-finite floats become None -- JSON has no spelling for them and
    the report schema allows null wherever a number can appear.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def canonical_json(payload) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)


def payload_without_timestamp(report: dict) -> dict:
    """The reproducible part of a report: everything but the timestamp."""
    report = json.loads(canonical_json(report))
    report.get("manifest", {}).pop("timestamp", None)
    return report


def _build_report(command, argv, descriptor, config, results, summary) -> dict:
    return _jsonable(
        {
            "schema": REPORT_SCHEMA_ID,
            "manifest": {
                "tool_version": __version__,
                "command": command,
                "argv": list(argv),
                "descriptor": descriptor,
                "config": config,
            },
            "results": [r.to_dict() for r in results],
            "summary": summary,
        }
    )


# ---------------------------------------------------------------------------
# argument parsing


def _parse_seeds(text: str) -> list[int]:
    """Seed list syntax: '1..30' (inclusive range) or '1,5,9'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    if len(seeds) < 2:
        raise ValueError("need at least two seeds (e.g. --seeds 1..30)")
    return seeds


def _test_names(text: str) -> tuple[str, ...] | None:
    """--tests syntax: a comma list; an empty string keeps the default tests."""
    return tuple(t.strip() for t in text.split(",") if t.strip()) if text else None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=None,
                        help="significance level for statistical tests (default 0.01)")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report to PATH")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")

    parser = argparse.ArgumentParser(
        prog="rngaudit",
        description="Statistical and geometric quality audits for "
        "pseudorandom number generators.",
    )
    parser.add_argument("--version", action="version", version=f"rngaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="write uniforms from a generator descriptor")
    p.add_argument("descriptor", help="e.g. lcg:m=262144,a=4649,c=819,seed=1 | "
                                      "wh:seed1=1,seed2=2,seed3=3 | mt:seed=5489")
    p.add_argument("-n", "--count", type=int, required=True, help="number of values")
    p.add_argument("-o", "--output", default=None,
                   help="sample file path (default: values to stdout)")

    p = sub.add_parser("test", parents=[common],
                       help="run the statistical battery on a sample or generator")
    p.add_argument("source", help="sample file path or generator descriptor")
    p.add_argument("-n", "--count", type=int, default=100_000,
                   help="sample length when source is a descriptor (default 100000)")
    p.add_argument("--tests", type=_test_names, default=None,
                   help="comma list out of uniformity,permutation,serial,birthday")
    p.add_argument("--bonferroni", action="store_true", default=None,
                   help="split alpha across the planned number of results")
    p.add_argument("--permutation-k", type=int, default=None, metavar="K")
    p.add_argument("--serial-d", type=int, default=None, metavar="D")
    p.add_argument("--serial-l", type=int, default=None, metavar="L")
    p.add_argument("--birthday-n", type=int, default=None, metavar="N")
    p.add_argument("--birthday-k", type=int, default=None, metavar="K")
    p.add_argument("--tuple-mode", choices=["disjoint", "overlapping"], default=None)
    p.add_argument("--levene-groups", type=int, default=None, metavar="G")
    p.add_argument("--gof-bins", type=int, default=None, metavar="B")

    p = sub.add_parser("spectral", parents=[common],
                       help="lattice accuracy test for congruential generators")
    p.add_argument("descriptor", help="lcg:m=...,a=...,c=...,seed=... descriptor")
    p.add_argument("--dmax", type=int, default=6,
                   help=f"highest dimension to evaluate (2..{MAX_DIM}, default 6)")
    p.add_argument("--cloud", type=int, choices=[2, 3], default=None,
                   help="also export the d-dimensional point cloud")
    p.add_argument("--cloud-out", default="cloud", metavar="STEM",
                   help="output stem for cloud files (default 'cloud')")

    p = sub.add_parser("sweep", parents=[common],
                       help="seed-sensitivity sweep of the toy Monte Carlo model")
    p.add_argument("descriptor")
    p.add_argument("--seeds", default="1..30",
                   help="'LO..HI' or comma list (default 1..30)")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--steps", dest="horizon_steps", metavar="STEPS", type=int, default=None)
    p.add_argument("--drift", type=float, default=None)
    p.add_argument("--vol", dest="volatility", metavar="VOL", type=float, default=None)
    p.add_argument("--discount", dest="discount_rate", metavar="DISCOUNT", type=float,
                   default=None)
    p.add_argument("--strike", dest="strike_ratio", metavar="STRIKE", type=float,
                   default=None)

    p = sub.add_parser("period", parents=[common],
                       help="full-period check for an LCG descriptor")
    p.add_argument("descriptor")
    p.add_argument("--factor-bound", type=int, default=DEFAULT_FACTOR_BOUND,
                   help="trial-division bound for factoring the modulus")
    p.add_argument("--brute-cap", type=int, default=None, metavar="CAP",
                   help="also walk the recurrence directly, up to CAP steps")

    p = sub.add_parser("figures", parents=[common],
                       help="export point-cloud CSV/SVG artifacts")
    p.add_argument("descriptor", nargs="?", default=FIGURE_DESCRIPTOR,
                   help=f"generator to plot (default {FIGURE_DESCRIPTOR})")
    p.add_argument("--out-dir", default=".", help="directory for the artifacts")

    return parser


# ---------------------------------------------------------------------------
# command implementations
#
# Each _run_* is pure: it returns (descriptor, config, records, summary,
# file jobs, extra) and writes nothing, so reports can be rebuilt from
# their manifest without touching the filesystem.  _run turns that into
# the report, its summary verdict and the exit code.  File jobs are
# (path, write) callables executed by main() after the report exists;
# extra is what the human-readable summary prints from.


def _lcg_params(descriptor: str, command: str):
    gen = make_generator(descriptor)
    if not isinstance(gen, Lcg):
        raise ValueError(f"{command} requires a congruential generator (lcg: descriptor)")
    return gen.params


def _config(base, args):
    """``base`` with every field that ``args`` sets (not None) replaced;
    each option's dest is the name of the field it sets."""
    return dataclasses.replace(base, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(base)
        if getattr(args, f.name) is not None
    })


def _run_generate(args):
    if args.count < 1:
        raise ValueError("count must be >= 1")
    gen = make_generator(args.descriptor)
    smp = gen.sample(args.count)
    target = args.output if args.output else "stdout"
    config = {"count": args.count, "output": target}
    records = [TestResult("generate", float(args.count), None, None, config, "pass")]
    files = []
    if args.output:
        files.append((args.output, lambda path, s=smp: save_sample(s, path)))
    return gen.descriptor, config, records, config, files, smp


def _is_descriptor(src: str) -> bool:
    """A generator descriptor, not a sample-file path: a known kind, or a
    'kind:' head that names no existing file (an unknown kind, so a usage
    error rather than a missing file)."""
    if src.startswith(_DESCRIPTOR_PREFIXES):
        return True
    return _KIND_HEAD.match(src) is not None and not os.path.exists(src)


def _run_test(args):
    src = args.source
    if _is_descriptor(src):
        gen = make_generator(src)
        sample = gen.sample(args.count)
        descriptor = gen.descriptor
    else:
        sample = load_sample(src)
        descriptor = (
            sample.provenance
            if sample.provenance.startswith(_DESCRIPTOR_PREFIXES)
            else None
        )
    battery = run_battery(sample, _config(BatteryConfig(), args))
    summary = {
        "n_results": len(battery.results),
        "n_rejections": battery.n_rejections,
        "n_errors": sum(1 for r in battery.results if r.verdict == "error"),
        "sample_size": len(sample.values),
        "source": src,
    }
    return descriptor, battery.config.to_dict(), battery.results, summary, [], battery


def _run_spectral(args):
    params = _lcg_params(args.descriptor, "spectral test")
    spectral = spectral_accept(params, d_max=args.dmax)
    summary = {
        "modulus": spectral.modulus,
        "multiplier": spectral.multiplier,
        "dims": list(spectral.dims),
    }
    files = []
    if args.cloud:
        n_values = min(params.modulus, 1 << 18)
        cloud = point_cloud(make_generator(args.descriptor).sample(n_values), args.cloud)
        csv_path = f"{args.cloud_out}-d{args.cloud}.csv"
        files.append((csv_path, lambda p, c=cloud: export_cloud_csv(c, p)))
        if args.cloud == 2:
            svg_path = f"{args.cloud_out}-d2.svg"
            files.append((svg_path, lambda p, c=cloud: export_cloud_svg(c, p)))
    config = {"dmax": args.dmax, "cloud": args.cloud}
    return args.descriptor, config, spectral.results, summary, files, spectral


def _run_sweep(args):
    seeds = _parse_seeds(args.seeds)
    config = _config(ToyModelConfig(), args)
    sweep = seed_sweep(args.descriptor, seeds, config)
    verdict = "reject" if sweep.seed_effect_flag else "pass"
    records = [
        TestResult("seed-effect", sweep.max_abs_relative_delta, None, None,
                   sweep.to_dict(), verdict)
    ]
    summary = {
        "max_abs_relative_delta": sweep.max_abs_relative_delta,
        "max_pair": list(sweep.max_pair),
        "n_seeds": len(seeds),
    }
    return args.descriptor, config.to_dict(), records, summary, [], sweep


def _run_period(args):
    params = _lcg_params(args.descriptor, "period check")
    predicate = None
    factor_error = None
    try:
        predicate = full_period_predicate(params, factor_bound=args.factor_bound)
    except FactorizationError as exc:
        factor_error = str(exc)
    brute = None
    if args.brute_cap is not None:
        brute = brute_force_period(params, cap=args.brute_cap)
    if predicate is not None:
        full = predicate
    elif brute is not None:
        full = brute == params.modulus
    else:
        full = None
    verdict = {True: "pass", False: "reject", None: "error"}[full]
    detail = {
        "modulus": params.modulus,
        "predicate": predicate,
        "factorization_error": factor_error,
        "brute_period": brute,
        "brute_cap": args.brute_cap,
        "factor_bound": args.factor_bound,
    }
    records = [
        TestResult("full-period", float(brute) if brute is not None else None,
                   None, None, detail, verdict)
    ]
    summary = {"full_period": full, "modulus": params.modulus}
    config = {"factor_bound": args.factor_bound, "brute_cap": args.brute_cap}
    return args.descriptor, config, records, summary, [], full


def _run_figures(args):
    gen = make_generator(args.descriptor)
    if isinstance(gen, Lcg):
        n_values = min(gen.params.modulus, 1 << 18)
    else:
        n_values = 1 << 17
    sample = gen.sample(n_values)
    pairs = point_cloud(sample, 2)
    triples = point_cloud(sample, 3)
    out = args.out_dir.rstrip("/") or "."
    jobs = [
        (f"{out}/pairs.csv", lambda p, c=pairs: export_cloud_csv(c, p), len(pairs)),
        (f"{out}/pairs.svg", lambda p, c=pairs: export_cloud_svg(c, p),
         min(len(pairs), 32768)),
        (f"{out}/triples.csv", lambda p, c=triples: export_cloud_csv(c, p),
         len(triples)),
    ]
    records = [
        TestResult(path.rsplit("/", 1)[-1], float(rows), None, None,
                   {"path": path, "rows": rows}, "pass")
        for path, _, rows in jobs
    ]
    summary = {"n_values": n_values, "files": [path for path, _, _ in jobs]}
    config = {"out_dir": out, "n_values": n_values}
    return gen.descriptor, config, records, summary, [(p, fn) for p, fn, _ in jobs], None


_RUNNERS = {
    "generate": _run_generate,
    "test": _run_test,
    "spectral": _run_spectral,
    "sweep": _run_sweep,
    "period": _run_period,
    "figures": _run_figures,
}


def _summary_verdict(command, records) -> str:
    """The report's verdict: reject if any record rejects, else error if
    any record errs, else pass -- which the spectral test spells accept."""
    verdicts = {r.verdict for r in records}
    if "reject" in verdicts:
        return "reject"
    if "error" in verdicts:
        return "error"
    return "accept" if command == "spectral" else "pass"


def _run(args, argv) -> tuple[dict, list, int, object]:
    """Execute a parsed command: its report, file jobs, exit code and extra."""
    descriptor, config, records, summary, files, extra = _RUNNERS[args.command](args)
    verdict = _summary_verdict(args.command, records)
    report = _build_report(args.command, argv, descriptor, config, records,
                           {"verdict": verdict, **summary})
    return report, files, _EXIT_CODES[verdict], extra


def run_command(argv) -> tuple[dict, list, int, object]:
    """Parse argv and execute its command without writing any file."""
    return _run(build_parser().parse_args(argv), argv)


def rerun_from_manifest(manifest: dict) -> dict:
    """Rebuild the reproducible payload from a report's embedded manifest."""
    report, _, _, _ = run_command(list(manifest["argv"]))
    return payload_without_timestamp(report)


# ---------------------------------------------------------------------------
# human-readable summaries


def _print_summary(command, report, extra, quiet):
    if command == "generate" and extra is not None and report["summary"]["output"] == "stdout":
        # The values are the payload; print them even under --quiet.
        sys.stdout.writelines(sample_lines(extra))
        return
    if quiet:
        return
    summary = report["summary"]
    if command == "test":
        for r in report["results"]:
            stat = "n/a" if r["statistic"] is None else f"{r['statistic']:.6g}"
            p = "n/a" if r["p_value"] is None else f"{r['p_value']:.3e}"
            print(f"{r['name']:<22} statistic={stat:<12} p={p:<10} {r['verdict']}")
        print(f"=> {summary['verdict']} ({summary['n_rejections']} rejection(s), "
              f"{summary['n_errors']} error(s), n={summary['sample_size']})")
    elif command == "spectral":
        for r in report["results"]:
            thr = r["detail"]["threshold"]
            bound = "no threshold" if thr is None else f"threshold {thr:.2f}"
            print(f"{r['name']:<14} accuracy={r['statistic']:<12.4f} {bound:<18} "
                  f"{r['verdict']}")
        print(f"=> {summary['verdict']}")
    elif command == "sweep" and extra is not None:
        print(extra.to_text_table())
        print(f"=> {summary['verdict']}")
    elif command == "period":
        d = report["results"][0]["detail"]
        print(f"modulus {d['modulus']}: full period = {summary['full_period']}"
              f" (predicate {d['predicate']}, brute {d['brute_period']})")
        print(f"=> {summary['verdict']}")
    elif command == "figures":
        for r in report["results"]:
            print(f"wrote {r['detail']['path']} ({r['detail']['rows']} rows)")
    elif command == "generate":
        print(f"wrote {summary['count']} values to {summary['output']}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, files, code, extra = _run(args, argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    report["manifest"]["timestamp"] = (
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    )
    try:
        for path, write in files:
            write(path)
        if args.json:
            _atomic_write_text(args.json, canonical_json(report) + "\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_summary(args.command, report, extra, args.quiet)
    return code


def entrypoint():
    sys.exit(main())
