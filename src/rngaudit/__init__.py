"""Quality audits for pseudorandom number generators.

Configurable generator families (LCG, Wichmann-Hill, Mersenne Twister),
a four-family statistical test battery, an exact lattice accuracy test
for LCGs, and a seed-sensitivity harness around a small Monte Carlo
valuation model, all behind one command line tool.
"""

__version__ = "0.1.0"

from .generators import (
    FactorizationError,
    LcgParams,
    Lcg,
    WichmannHill,
    MT19937,
    Sample,
    full_period_predicate,
    brute_force_period,
    make_generator,
)
from .io import save_sample, load_sample
from .battery import BatteryConfig, BatteryReport, run_battery
from .spectral import (
    spectral_accept,
    acceptance_threshold,
    point_cloud,
)
from .seedlab import ToyModelConfig, mc_estimate, seed_sweep

__all__ = [
    "__version__",
    "FactorizationError",
    "LcgParams",
    "Lcg",
    "WichmannHill",
    "MT19937",
    "Sample",
    "full_period_predicate",
    "brute_force_period",
    "make_generator",
    "save_sample",
    "load_sample",
    "BatteryConfig",
    "BatteryReport",
    "run_battery",
    "spectral_accept",
    "acceptance_threshold",
    "point_cloud",
    "ToyModelConfig",
    "mc_estimate",
    "seed_sweep",
]
