"""Each workload end to end at a reduced size, untraced and traced."""

import json
import os
import subprocess
import sys

import pytest

from tracing import PER_LAYER

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
OPS_PER_ROUND = {"audit": 9, "sweep": 3, "lattice": 6}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["audit", "sweep", "lattice"])
def test_small_workload(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    rounds = 2 if trace == "1" else 1
    assert result["attempted"] == OPS_PER_ROUND[workload] * rounds
    # the full-orbit probe of audit fails on the two known faults, once per round
    assert result["failed"] == (rounds if workload == "audit" else 0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["audit", "sweep", "lattice"]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "bench" / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
