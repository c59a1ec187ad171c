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

Unless ``--quiet`` is given, every command but ``generate`` to stdout
prints a text summary read from its report alone, whatever the command:
one line per record (``wrote PATH (ROWS rows)`` for a file record, and
an error record's reason below it), a table for each list of row
objects in a record's detail, and ``=> VERDICT (...)`` with the
summary's other fields.

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
    make_generator,
)
from .io import atomic_write_text as _atomic_write_text
from .io import load_sample, sample_lines, save_sample
from .seedlab import ToyModelConfig, seed_sweep
from .spectral import (
    MAX_DIM,
    SVG_MAX_POINTS,
    export_cloud_csv,
    export_cloud_svg,
    point_cloud,
    spectral_accept,
    thin,
)
from .stats import VERDICTS, TestResult, summary_verdict

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
# File stems of the figure exports, by tuple dimension.
_CLOUD_NAMES = {2: "pairs", 3: "triples"}

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
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds takes LO..HI or a comma list of integers, not {text!r}"
        ) from None
    if len(seeds) < 2:
        raise ValueError("need at least two seeds (e.g. --seeds 1..30)")
    return seeds


def _test_names(text: str) -> tuple[str, ...] | None:
    """--tests syntax: a comma list; an empty string keeps the default tests."""
    return tuple(t.strip() for t in text.split(",") if t.strip()) if text else None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
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
    p.add_argument("--alpha", type=float, default=None,
                   help="significance level of the tests (default 0.01)")
    p.add_argument("--tests", type=_test_names, default=None,
                   help="comma list out of uniformity,permutation,serial,birthday")
    p.add_argument("--bonferroni", action="store_true", default=None,
                   help="split alpha across the planned number of results")
    p.add_argument("--permutation-k", type=int, default=None, metavar="K")
    p.add_argument("--serial-d", type=int, default=None, metavar="D")
    p.add_argument("--serial-l", type=int, default=None, metavar="L")
    p.add_argument("--birthday-n", type=int, default=None, metavar="N")
    p.add_argument("--birthday-k", type=int, default=None, metavar="K")
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
# file jobs) and writes nothing, so reports can be rebuilt from their
# manifest without touching the filesystem.  run_command turns that into
# the report, its summary verdict and the exit code.  File jobs are
# (target, write) pairs, the target a path or a tuple of the paths one
# job writes; main() calls write(target) for each after the report
# exists.  The human-readable summary prints from the report alone.


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
    # null: the values went to stdout (``-o stdout`` names a file)
    config = {"count": args.count, "output": args.output or None}
    records = [TestResult("generate", float(args.count), None, None, config, "pass")]
    if args.output:
        job = (args.output, lambda path: save_sample(smp, path))
    else:
        # the values are the output, so they are printed even under --quiet
        job = ("stdout", lambda _: sys.stdout.writelines(sample_lines(smp)))
    return gen.descriptor, config, records, config, [job]


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
        descriptor = sample.provenance
        try:
            make_generator(descriptor)
        except ValueError:
            descriptor = None  # the header names no generator this tool can build
    config = _config(BatteryConfig(), args)
    battery = run_battery(sample, config)
    summary = {
        "n_results": len(battery.results),
        "n_rejections": battery.n_rejections,
        "n_errors": sum(1 for r in battery.results if r.verdict == "error"),
        "sample_size": len(sample.values),
        "source": src,
    }
    return descriptor, dataclasses.asdict(config), battery.results, summary, []


def _cloud_jobs(gen, dims, path):
    """Sample ``gen``, build its point clouds of dimensions ``dims`` and
    queue their exports: the CSVs of all of them in one job, and an SVG of
    the pairs.  ``path(d, ext)`` names each file.  Returns the sample
    size, one ``pass`` record per file (named after it; statistic and
    ``rows`` the rows written, for the SVG the points it draws) and the
    jobs."""
    n_values = min(gen.params.modulus, 1 << 18) if isinstance(gen, Lcg) else 1 << 17
    sample = gen.sample(n_values)
    clouds = [point_cloud(sample, d) for d in dims]
    csvs = tuple(path(d, "csv") for d in dims)
    jobs = [(csvs, lambda paths: export_cloud_csv(clouds, paths))]
    files = []
    for csv, d, cloud in zip(csvs, dims, clouds):
        files.append((csv, len(cloud)))
        if d == 2:
            svg = path(2, "svg")
            files.append((svg, len(thin(cloud, SVG_MAX_POINTS))))
            jobs.append((svg, lambda p, c=cloud: export_cloud_svg(c, p)))
    records = [TestResult(p.rsplit("/", 1)[-1], float(rows), None, None,
                          {"path": p, "rows": rows}, "pass")
               for p, rows in files]
    return n_values, records, jobs


def _run_spectral(args):
    params = _lcg_params(args.descriptor, "spectral test")
    records = spectral_accept(params, d_max=args.dmax)
    summary = {
        "modulus": params.modulus,
        "multiplier": params.multiplier,
        "dims": list(range(2, args.dmax + 1)),
    }
    files = []
    if args.cloud:
        _, written, files = _cloud_jobs(make_generator(args.descriptor), [args.cloud],
                                        lambda d, ext: f"{args.cloud_out}-d{d}.{ext}")
        records += written
        summary["files"] = [r.detail["path"] for r in written]
    config = {"dmax": args.dmax, "cloud": args.cloud}
    return args.descriptor, config, records, summary, files


def _run_sweep(args):
    seeds = _parse_seeds(args.seeds)
    config = _config(ToyModelConfig(), args)
    record = seed_sweep(args.descriptor, seeds, config)
    summary = {
        "max_abs_relative_delta": record.statistic,
        "max_pair": record.detail["max_pair"],
        "n_seeds": len(seeds),
    }
    return args.descriptor, dataclasses.asdict(config), [record], summary, []


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
        "brute_period": brute,
        "brute_cap": args.brute_cap,
        "factor_bound": args.factor_bound,
    }
    if factor_error is not None:
        detail["error"] = factor_error
    records = [
        TestResult("full-period", float(brute) if brute is not None else None,
                   None, None, detail, verdict)
    ]
    summary = {"full_period": full, "modulus": params.modulus}
    config = {"factor_bound": args.factor_bound, "brute_cap": args.brute_cap}
    return args.descriptor, config, records, summary, []


def _run_figures(args):
    gen = make_generator(args.descriptor)
    out = args.out_dir.rstrip("/") or "."
    n_values, records, files = _cloud_jobs(gen, [2, 3],
                                           lambda d, ext: f"{out}/{_CLOUD_NAMES[d]}.{ext}")
    summary = {"n_values": n_values, "files": [r.detail["path"] for r in records]}
    config = {"out_dir": out, "n_values": n_values}
    return gen.descriptor, config, records, summary, files


_RUNNERS = {
    "generate": _run_generate,
    "test": _run_test,
    "spectral": _run_spectral,
    "sweep": _run_sweep,
    "period": _run_period,
    "figures": _run_figures,
}


def run_command(argv) -> tuple[dict, list, int, argparse.Namespace]:
    """Parse argv and execute its command without writing any file: the
    report, its file jobs, the exit code and the parsed arguments."""
    args = build_parser().parse_args(argv)
    descriptor, config, records, summary, files = _RUNNERS[args.command](args)
    verdict = summary_verdict(records, "accept" if args.command == "spectral" else "pass")
    report = _build_report(args.command, argv, descriptor, config, records,
                           {"verdict": verdict, **summary})
    return report, files, _EXIT_CODES[verdict], args


def rerun_from_manifest(manifest: dict) -> dict:
    """Rebuild the reproducible payload from a report's embedded manifest."""
    return payload_without_timestamp(run_command(list(manifest["argv"]))[0])


# ---------------------------------------------------------------------------
# human-readable summaries


def _fmt(x, spec: str) -> str:
    """``x`` formatted by ``spec``; null, which stands for a non-finite
    number in a report, reads n/a."""
    return "n/a" if x is None else format(x, spec)


def _show(x) -> str:
    """One value of a report as the summary prints it."""
    if isinstance(x, list):
        return ",".join(map(_show, x))
    return _fmt(x, ".6g") if x is None or isinstance(x, float) else str(x)


def _print_summary(report):
    """Print a report from its records and summary alone: one line per
    record (a file record says what it wrote, an error record why), a
    table per list of row objects in a record's detail, and the verdict
    with the summary's other fields."""
    for r in report["results"]:
        d = r["detail"]
        if "path" in d:
            print(f"wrote {d['path']} ({d['rows']} rows)")
            continue
        stat, p = _show(r["statistic"]), _fmt(r["p_value"], ".3e")
        print(f"{r['name']:<22} statistic={stat:<12} p={p:<10} {r['verdict']}")
        if "error" in d:
            print(f"  error: {d['error']}")
        for rows in d.values():
            if isinstance(rows, list) and rows and isinstance(rows[0], dict):
                cells = [list(rows[0]), *([_show(v) for v in row.values()] for row in rows)]
                widths = [max(map(len, col)) for col in zip(*cells)]
                for line in cells:
                    print("  " + "  ".join(c.rjust(w) for c, w in zip(line, widths)))
    summary = dict(report["summary"])
    verdict = summary.pop("verdict")
    print(f"=> {verdict} ({', '.join(f'{k}={_show(v)}' for k, v in summary.items())})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        report, files, code, args = run_command(argv)
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
        for target, write in files:
            write(target)
        if args.json:
            _atomic_write_text(args.json, canonical_json(report) + "\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    # generate without -o prints its values: they are the whole output
    if not args.quiet and getattr(args, "output", True):
        _print_summary(report)
    return code


def entrypoint():
    sys.exit(main())
