"""Smoke runs of the example scripts under scripts/ at small sizes.

Each script runs in a fresh interpreter against the package sources, so
a change to the API the scripts call fails here rather than in a user's
hands.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compare_generators():
    out = run_script("compare_generators.py", "-n", "20000", "--seeds", "2")
    assert "short-period LCG: 1 rejection(s), 0 error(s)" in out
    assert "Mersenne Twister: 0 rejection(s), 0 error(s)" in out
    assert "birthday-spacings" in out


def test_reproduce_figures(tmp_path):
    out = run_script("reproduce_figures.py", "-n", "4096", "--out-dir", str(tmp_path))
    assert "overall: reject" in out and "overall: accept" in out
    assert len(list(tmp_path.glob("*.csv"))) == 4
    # a header and 4095 pairs or 4094 triples of each 4096-value sample
    lines = sorted(len(p.read_text().splitlines()) for p in tmp_path.glob("*.csv"))
    assert lines == [4095, 4095, 4096, 4096]
    assert len(list(tmp_path.glob("*.svg"))) == 2


def test_seed_dispersion_scan():
    out = run_script("seed_dispersion_scan.py", "--paths", "50", "--seeds", "2",
                     "--steps", "10", "20")
    rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["10"], ["20"])]
    assert [(r[0], r[1]) for r in rows] == [("10", "500"), ("20", "1000")]
