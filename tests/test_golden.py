"""Golden reports: every command's payload, stdout and exit code, pinned.

``tests/golden/reports.json`` holds, for each argv in ``CASES``, the
reproducible payload of the JSON report (``payload_without_timestamp``),
everything printed to stdout and the exit code.  Strings, integers and
verdicts must match exactly.  Floats must match to ``FLOAT_REL``
relative: numpy's SIMD ``log`` moves battery floats by ulps across
builds.  Every file the cases write must equal, byte for byte, its text
built one value at a time from the generator's recurrence (``WRITTEN``).

Rebuild the fixtures (only on purpose, and say why in the change log)::

    PYTHONPATH=src python tests/test_golden.py

The rebuild prints, for each case, which of ``exit_code``, ``stdout``
and ``payload`` differ from the committed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from rngaudit.cli import main, payload_without_timestamp

from oracles import SVG_HEAD, first_line_apart, lcg_sequence, svg_circles

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
FLOAT_REL = 1e-12
REPORT = "golden-report.json"

FM = "lcg:m=2147483647,a=742938285,c=0,seed=5"

# Run in order in one directory: ``test fm.txt`` reads what the line before writes.
CASES = [
    ["generate", "lcg:m=10,a=7,c=7,seed=7", "-n", "6"],
    ["generate", FM, "-n", "100000", "-o", "fm.txt"],
    ["test", "fm.txt"],
    ["test", "mt:seed=1", "-n", "20000"],
    ["test", "mt:seed=1", "-n", "5000"],
    ["test", "lcg:m=10,a=7,c=7,seed=7", "-n", "20000"],
    ["spectral", "lcg:m=262144,a=4649,c=819,seed=1"],
    ["spectral", "lcg:m=1024,a=389,c=1,seed=1", "--dmax", "8", "--cloud", "2",
     "--cloud-out", "c"],
    ["sweep", "mt:", "--seeds", "1,2,3", "--paths", "200", "--steps", "20"],
    ["period", "lcg:m=10,a=7,c=7,seed=7", "--brute-cap", "100"],
    ["period", "lcg:m=4951760154835678088235319297,a=3,c=1,seed=1",
     "--factor-bound", "100000"],
    ["figures", "lcg:m=1024,a=389,c=1,seed=1", "--out-dir", "f1"],
    ["figures", "lcg:m=40000,a=4001,c=1,seed=1", "--out-dir", "f2"],
]


def run_case(argv) -> dict:
    """Run one argv through ``main`` in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json", REPORT])
    report = json.loads(Path(REPORT).read_text())
    os.remove(REPORT)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
            "payload": payload_without_timestamp(report)}


def run_cases() -> list[dict]:
    for name in ("f1", "f2"):
        os.makedirs(name, exist_ok=True)
    return [run_case(argv) for argv in CASES]


def assert_matches(got, want, where="$"):
    """Equal in structure and type; floats within FLOAT_REL relative."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _uniforms(m, a, c, seed, n):
    return [y / m for y in lcg_sequence(m, a, c, seed, n)]


def _sample_text(m, a, c, seed, n):
    head = f"# rngaudit-sample v1 lcg:m={m},a={a},c={c},seed={seed}\n"
    return head + "".join(f"{u!r}\n" for u in _uniforms(m, a, c, seed, n))


def _csv_text(values, d):
    rows = [",".join(map(repr, values[i:i + d])) for i in range(len(values) - d + 1)]
    return "\n".join([",".join(f"x{j + 1}" for j in range(d)), *rows]) + "\n"


def _svg_text(values, stride=1):
    pairs = [values[i:i + 2] for i in range(0, len(values) - 1, stride)]
    return SVG_HEAD + "".join(c + "\n" for c in svg_circles(pairs)) + "</svg>\n"


_C = _uniforms(1024, 389, 1, 1, 1024)
_F2 = _uniforms(40000, 4001, 1, 1, 40000)
# Every file CASES write, from the recurrence of its generator, one value at
# a time; the 39999 pairs of f2 are thinned to every second one in the SVG.
WRITTEN = {
    "fm.txt": lambda: _sample_text(2147483647, 742938285, 0, 5, 100000),
    "c-d2.csv": lambda: _csv_text(_C, 2),
    "c-d2.svg": lambda: _svg_text(_C),
    "f1/pairs.csv": lambda: _csv_text(_C, 2),
    "f1/triples.csv": lambda: _csv_text(_C, 3),
    "f1/pairs.svg": lambda: _svg_text(_C),
    "f2/pairs.csv": lambda: _csv_text(_F2, 2),
    "f2/triples.csv": lambda: _csv_text(_F2, 3),
    "f2/pairs.svg": lambda: _svg_text(_F2, stride=2),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def runs(workdir):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        return run_cases()


def test_golden_covers_every_case():
    assert [case["argv"] for case in json.loads(GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(CASES)])
def test_report_matches_golden(runs, index):
    want = json.loads(GOLDEN.read_text())[index]
    got = runs[index]
    assert got["exit_code"] == want["exit_code"]
    assert got["stdout"] == want["stdout"]
    assert_matches(got["payload"], want["payload"])


def test_cases_write_these_files(runs, workdir):
    written = {p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()}
    assert written == set(WRITTEN)


@pytest.mark.parametrize("name", WRITTEN)
def test_file_matches_per_element_text(runs, workdir, name):
    assert first_line_apart((workdir / name).read_text(), WRITTEN[name]()) is None


def test_every_summary_ends_with_its_verdict(runs):
    # generate without -o prints the sample file and nothing else
    ends = [(got["stdout"].splitlines()[-1], got["payload"]["summary"]["verdict"])
            for got in runs if got["argv"][0] != "generate" or "-o" in got["argv"]]
    assert len(ends) == len(CASES) - 1
    assert all(last.startswith(f"=> {verdict} (") for last, verdict in ends)


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cases = run_cases()
        os.chdir(here)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    old = {tuple(case["argv"]): case for case in old}
    for case in cases:
        was = old.get(tuple(case["argv"]))
        moved = ("new case" if was is None else
                 ", ".join(k for k in ("exit_code", "stdout", "payload")
                           if json.dumps(case[k], sort_keys=True)
                           != json.dumps(was[k], sort_keys=True)) or "unchanged")
        print(f"{' '.join(case['argv'])}: {moved}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
