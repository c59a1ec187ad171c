"""End-to-end benchmark of rngaudit's three audit jobs: audit, sweep and lattice.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {audit,sweep,lattice} --seed N --seconds S --trace {0,1}

Every round of a workload runs in a fresh interpreter (worker.py) that
calls ``rngaudit.cli.main`` once per command, one thread of work.  The
run repeats whole rounds until ``--seconds`` of command time are
measured, then checks every output against reference.py, outside the
timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics.  ``--trace 0``
gives the end-to-end metrics, medians over the run: setup_s, wall_s
(scaled to the reference machine speed, see worker.SpeedProbe) and
peak_rss_mb.  ``--trace 1`` alternates untraced and traced rounds and
gives the per-layer metrics of tracing.PER_LAYER.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import reference as ref
from tracing import PER_LAYER, layer_metrics
from workloads import build_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
# one command per workload whose report is rebuilt from its manifest
RERUN_OP = {"audit": 0, "sweep": 1, "lattice": 4}
# values of each generator source that are compared one by one with the reference
STREAM_PREFIX = 1 << 14


def worker_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, result_path):
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args, result_path],
                   env=worker_env(), stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path) as fh:
        return json.load(fh)


def measure_setup(work_dir):
    """Median set-up time over fresh interpreters, after one warm-up that
    leaves the bytecode cache filled as a user's second run finds it."""
    path = os.path.join(work_dir, "setup.json")
    run_worker(["--setup"], path)
    return statistics.median(run_worker(["--setup"], path)["setup_s"] for _ in range(SETUP_PROBES))


class RoundChecker:
    """Checks every op of a round and sorts it: passed, failed on a known
    fault (checks.KNOWN_FAULTS), or wrong."""

    def __init__(self, workload):
        import jsonschema

        from rngaudit import cli
        from rngaudit.generators import LcgParams, make_generator
        from rngaudit.spectral import spectral_accuracy_sq

        self.workload = workload
        self.cli = cli
        self.validator = jsonschema.Draft7Validator(cli.REPORT_SCHEMA)
        self.make_generator = make_generator
        self.accuracy_sq_of = lambda m, a, d: spectral_accuracy_sq(LcgParams(m, a), d)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def check_op(self, op, report, code):
        kind = op["kind"]
        if kind == "test":
            values = ref.stream(op["stream"], op["n"])
            out = checks.check_battery(report, values, op.get("check_variance_p", False))
            source = op["argv"][1]
            if source.startswith(("mt:", "lcg:", "wh:")):
                k = min(op["n"], STREAM_PREFIX)
                out += checks.check_stream(self.make_generator(source).generate(k), values[:k])
            if op.get("expect_reject") and report["summary"]["verdict"] != "reject":
                out.append(("battery.short_period", "the short-period LCG was not rejected"))
            return out + checks.check_exit_code(report, code)
        if kind == "generate":
            values = ref.stream(op["stream"], op["n"])
            header, written = checks.read_sample_file(op["sample_file"])
            return (checks.check_sample_file(header, written, values, op["descriptor"])
                    + checks.check_lcg_positions(written, *op["stream"][1:])
                    + checks.check_exit_code(report, code))
        if kind == "sweep":
            out = checks.check_sweep(report, code, op["closed_form"])
            config = report["manifest"]["config"]
            seed = op["seeds"][0]
            uniforms = ref.stream(ref.seeded(op["stream"], seed),
                                  config["paths"] * config["horizon_steps"] + 1024)
            return out + checks.check_box_muller(report, seed, uniforms)
        if kind == "spectral":
            m, a, _ = op["params"]
            return checks.check_spectral(report, code, m, a, self.accuracy_sq_of)
        if kind == "period":
            return checks.check_period(report, code, *op["params"], op["cap"])
        if kind == "figures":
            _, m, a, _, _ = op["stream"]
            values = ref.stream(op["stream"], op["n"])
            return checks.check_figures(report, op["dir"], values, m, a)
        raise ValueError(f"unknown op kind {kind!r}")

    def check_round(self, ops, codes, rerun):
        for i, (op, code) in enumerate(zip(ops, codes)):
            self.attempted += 1
            with open(op["report"]) as fh:
                report = json.load(fh)
            out = checks.check_schema(report, self.validator)
            out += self.check_op(op, report, code)
            if rerun and i == RERUN_OP[self.workload]:
                out += checks.check_rerun(report, self.cli.rerun_from_manifest,
                                               self.cli.payload_without_timestamp)
            if not out:
                continue
            name = " ".join(op["argv"][:2])
            for check, message in out:
                print(f"check {check} failed on `{name}`: {message}", file=sys.stderr)
            if all(check in checks.KNOWN_FAULTS for check, _ in out):
                self.failed += 1
            else:
                self.wrong.append(name)


def run(workload, seed, seconds, trace, size="full"):
    work_dir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup_s = measure_setup(work_dir)
        checker = RoundChecker(workload)
        untraced, traced = [], []
        measured, r = 0.0, 0
        while r == 0 or measured < seconds:
            for traced_round in ((False, True) if trace else (False,)):
                round_dir = os.path.join(work_dir, f"round{r}")
                os.makedirs(round_dir)
                ops = build_round(workload, seed, r, size, round_dir)
                ops_path = os.path.join(round_dir, "ops.json")
                with open(ops_path, "w") as fh:
                    json.dump(ops, fh)
                res = run_worker([ops_path, *(["--trace"] if traced_round else [])],
                                 os.path.join(round_dir, "result.json"))
                t0 = time.perf_counter()
                checker.check_round(ops, res["codes"], rerun=r == 0)
                check_s = time.perf_counter() - t0
                shutil.rmtree(round_dir)
                (traced if traced_round else untraced).append(res)
                print(f"round {r}{' traced' if traced_round else ''}: wall {res['wall_s']:.3f} s"
                      f" (raw {res['raw_wall_s']:.3f} s, speed {res['speed']:.3f}),"
                      f" rss {res['peak_rss_mb']:.1f} MB, checks {check_s:.1f} s, ops "
                      + " ".join(f"{t:.3f}" for t in res["times"]), file=sys.stderr)
                measured += res["wall_s"]
                r += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics = traced_metrics(untraced, traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(x["wall_s"] for x in untraced), "s"),
            "peak_rss_mb": (statistics.median(x["peak_rss_mb"] for x in untraced), "MB"),
        }
    return {
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(untraced, traced):
    per_round = [layer_metrics(x["spans"], x["counts"], x["raw_wall_s"]) for x in traced]
    out = {}
    for key, unit in PER_LAYER:
        out[key] = (statistics.median(m[key] for m in per_round), unit)
    out["cli.import_s"] = (statistics.median(x["import_s"] for x in traced), "s")
    out["trace.overhead_s"] = (statistics.median(x["wall_s"] for x in traced)
                               - statistics.median(x["wall_s"] for x in untraced), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "sweep", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rngaudit", "cli.py")):
        print(f"error: no rngaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
