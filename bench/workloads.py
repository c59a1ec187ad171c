"""The command lists of the three workloads, built from the workload seed.

A round is one list of commands, run in one fresh process.  Round r of
a run draws its inputs from the workload seed and r, so no command in a
run sees an input that an earlier command of the run saw.  The lattice
multipliers are fixed, because the lattice work depends on them; the
descriptor seeds around them change.  Each op carries what its checks
need to rebuild the expected output.
"""

from __future__ import annotations

import os
import random

MINSTD = (2147483647, 16807, 0)
FISHMAN_MOORE = (2147483647, 742938285, 0)
SUPER_DUPER = (4294967296, 69069, 1)
SHORT = (262144, 4649, 819)     # period 2**18; also the default figure generator
ORBIT = (1048576, 4649, 819)    # full period 2**20
WH_MODULI = (30269, 30307, 30323)

# Sizes of a full round and of the reduced round that the tests run.
SIZES = {
    "full": {
        "n": 1_000_000,
        "short": SHORT,                    # birthday spacings rejects it
        "orbit": ORBIT,                    # tested over its whole orbit
        "sweep_paths": None,               # the model's defaults: 1000 paths x 80 steps
        "sweep_seeds": {"mt": 30, "lcg": 30, "wh": 10},
        "dmax": 8,
        "period_full": ORBIT,
        "period_other": (1048576, 4651, 819),   # a = 3 (mod 4): cycles of 2**19
        "figure": SHORT,
    },
    "small": {
        "n": 20_000,
        "short": (4096, 1229, 1),
        "orbit": (16384, 4649, 819),
        "sweep_paths": (200, 80),
        "sweep_seeds": {"mt": 4, "lcg": 4, "wh": 3},
        "dmax": 5,
        "period_full": (16384, 4649, 819),
        "period_other": (16384, 4651, 819),
        "figure": (4096, 1229, 1),
    },
}


def lcg(params, seed) -> str:
    m, a, c = params
    return f"lcg:m={m},a={a},c={c},seed={seed}"


def _op(out_dir, idx, kind, argv, **check):
    report = os.path.join(out_dir, f"op{idx:02d}-{kind}.json")
    return {"kind": kind, "argv": [kind, *argv, "--json", report, "--quiet"],
            "report": report, **check}


def audit_round(key, r, size, out_dir):
    rng = random.Random(f"{key}:{r}")
    n = size["n"]
    ops = []
    for _ in range(3):
        s = rng.randrange(2**32)
        ops.append(("test", [f"mt:seed={s}", "-n", str(n)], {"stream": ["mt", s], "n": n}))
    s = rng.randrange(1, MINSTD[0])
    ops.append(("test", [lcg(MINSTD, s), "-n", str(n)], {"stream": ["lcg", *MINSTD, s], "n": n}))
    seeds = [rng.randrange(1, m) for m in WH_MODULI]
    ops.append(("test", [f"wh:seed1={seeds[0]},seed2={seeds[1]},seed3={seeds[2]}", "-n", str(n)],
                {"stream": ["wh", *seeds], "n": n}))
    s = rng.randrange(size["short"][0])
    ops.append(("test", [lcg(size["short"], s), "-n", str(n)],
                {"stream": ["lcg", *size["short"], s], "n": n, "expect_reject": True}))
    # The whole orbit of a full-period LCG.  Its sorted values are k / m for
    # every seed, so the KS and variance p-values it shows are the same in
    # every round; the start moves with the round only, not with the seed.
    m_orbit = size["orbit"][0]
    ops.append(("test", [lcg(size["orbit"], r + 1), "-n", str(m_orbit)],
                {"stream": ["lcg", *size["orbit"], r + 1], "n": m_orbit,
                 "check_variance_p": True}))
    s = rng.randrange(1, FISHMAN_MOORE[0])
    path = os.path.join(out_dir, "fishman-moore.txt")
    ops.append(("generate", [lcg(FISHMAN_MOORE, s), "-n", str(n), "-o", path],
                {"stream": ["lcg", *FISHMAN_MOORE, s], "n": n, "sample_file": path,
                 "descriptor": lcg(FISHMAN_MOORE, s)}))
    ops.append(("test", [path], {"stream": ["lcg", *FISHMAN_MOORE, s], "n": n}))
    return ops


def sweep_round(key, r, size, out_dir):
    rng = random.Random(f"{key}:{r}")
    count = size["sweep_seeds"]
    extra = []
    if size["sweep_paths"]:
        extra = ["--paths", str(size["sweep_paths"][0]), "--steps", str(size["sweep_paths"][1])]
    # one base per run; round r takes the r-th block of seeds after it
    base_rng = random.Random(key)
    bases = {"mt": base_rng.randrange(2**31), "lcg": base_rng.randrange(SHORT[0]),
             "wh": base_rng.randrange(30000)}
    # Only the MT estimates are held to the closed form: the short-period LCG
    # is the generator under suspicion, and Wichmann-Hill's single-integer
    # seeding (three equal component seeds) puts some estimates more than
    # 5 SE from it, e.g. seed 2996.
    ops = []
    m, a, c = SHORT
    for fam, desc, mod, spec in (("mt", "mt:", 2**32, ["mt"]),
                                 ("lcg", f"lcg:m={m},a={a},c={c}", m, ["lcg", m, a, c]),
                                 ("wh", "wh:", 30000, ["wh"])):
        lo = bases[fam] + r * count[fam]
        seeds = [(lo + i) % mod for i in range(count[fam])]
        ops.append(("sweep", [desc, "--seeds", ",".join(map(str, seeds)), *extra],
                    {"stream": spec, "seeds": seeds, "closed_form": fam == "mt"}))
    return ops


def lattice_round(key, r, size, out_dir):
    rng = random.Random(f"{key}:{r}")
    ops = []
    for params in (MINSTD, FISHMAN_MOORE, SUPER_DUPER):
        s = rng.randrange(1, min(params[0], 2**31 - 1))
        ops.append(("spectral", [lcg(params, s), "--dmax", str(size["dmax"])],
                    {"params": list(params)}))
    cap = 2 * size["period_full"][0]
    for params in (size["period_full"], size["period_other"]):
        s = rng.randrange(params[0])
        ops.append(("period", [lcg(params, s), "--brute-cap", str(cap)],
                    {"params": [*params, s], "cap": cap}))
    s = rng.randrange(size["figure"][0])
    fig_dir = os.path.join(out_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    ops.append(("figures", [lcg(size["figure"], s), "--out-dir", fig_dir],
                {"stream": ["lcg", *size["figure"], s], "n": size["figure"][0], "dir": fig_dir}))
    return ops


WORKLOADS = {"audit": audit_round, "sweep": sweep_round, "lattice": lattice_round}


def build_round(workload, seed, r, size_name, out_dir):
    """The ops of round r, a function of (workload, seed, r) only."""
    key = f"{workload}:{seed}"
    raw = WORKLOADS[workload](key, r, SIZES[size_name], out_dir)
    return [_op(out_dir, i, kind, argv, **check) for i, (kind, argv, check) in enumerate(raw)]
