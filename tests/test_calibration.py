"""Calibration of the battery's own p-values under the null.

A test's p-values must be uniform on (0, 1) when the sample is truly
uniform, or its verdicts mean nothing.  Each case draws null samples
from numpy's ``Generator(PCG64)``, which shares no code with the
generators under audit, and grades the p-values two ways (the
two-level test of L'Ecuyer & Simard 2007, ACM TOMS 33(4):22, §2):

- the rejection counts at alpha = 0.01 and 0.05 lie inside a two-sided
  99.9% binomial band, so a test that rejects too rarely fails as well
  as one that rejects too often;
- the KS test of the p-values against U(0, 1) gives p > 1e-3.

The seed is fixed before any run, and neither it nor the sizes may
change to make a case pass.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from rngaudit.battery import permutation_test, serial_test

SEED = 20240519
N_VALUES = 20_000
REPLICATIONS = 4000
BAND = 0.999
KS_FLOOR = 1e-3

TUPLE_TESTS = {
    "serial": lambda v: serial_test(v, d=8, l=2),
    "permutation": lambda v: permutation_test(v, k=3),
}


def null_p_values(run, seed: int = SEED) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.array([run(rng.random(N_VALUES)).p_value for _ in range(REPLICATIONS)])


@pytest.mark.parametrize("name", TUPLE_TESTS)
def test_tuple_test_p_values_are_uniform(name):
    p = null_p_values(TUPLE_TESTS[name])
    for alpha in (0.01, 0.05):
        lo, hi = scipy.stats.binom.interval(BAND, REPLICATIONS, alpha)
        rejections = int(np.sum(p < alpha))
        assert lo <= rejections <= hi, (
            f"{name}: {rejections} of {REPLICATIONS} rejected at alpha={alpha}, "
            f"outside [{lo:.0f}, {hi:.0f}]"
        )
    ks_p = scipy.stats.kstest(p, "uniform").pvalue
    assert ks_p > KS_FLOOR, f"{name}: KS p-value {ks_p:.3g} of the null p-values"
