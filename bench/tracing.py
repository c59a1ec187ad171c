"""Spans around the public functions of each rngaudit module.

The wrappers are installed from the benchmark's side: ``cli``,
``battery`` and ``seedlab`` bind what they call by name, so each span
wraps the name in the module that calls it.  Spans are (name, start,
end, parent) tuples kept in memory and written out when the round ends.
``next_uniform`` gets no span: the sweep calls it ~80k times per seed,
so ``replay_scalar`` times the same number of calls afterwards on a
fresh generator of each descriptor and seed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = [
    *[(f"generators.bulk_s.{f}", "s") for f in ("mt", "lcg", "wh")],
    ("generators.bulk_uniforms", "count"),
    ("generators.scalar_s", "s"),
    ("generators.scalar_uniforms", "count"),
    ("generators.period_walk_s", "s"),
    ("generators.period_steps", "count"),
    ("generators.save_sample_s", "s"),
    ("generators.load_sample_s", "s"),
    *[(f"stats.{t}_s", "s") for t in ("t_test", "variance", "levene", "ks", "chi2_gof",
                                      "anderson_darling")],
    *[(f"battery.{f}_s", "s") for f in ("run", "uniformity", "permutation", "serial",
                                        "birthday")],
    ("battery.results", "count"),
    ("battery.rejections", "count"),
    *[(f"spectral.accuracy_s.d{d}", "s") for d in range(2, 9)],
    ("spectral.point_cloud_s", "s"),
    ("spectral.export_csv_s", "s"),
    ("spectral.export_svg_s", "s"),
    ("spectral.csv_rows", "count"),
    ("seedlab.mc_estimate_s", "s"),
    ("seedlab.self_s", "s"),
    ("seedlab.normals", "count"),
    ("seedlab.normals_per_s", "1/s"),
    ("seedlab.sweep_table_s", "s"),
    *[(f"cli.command_s.{c}", "s") for c in ("test", "generate", "spectral", "period",
                                            "figures", "sweep")],
    ("cli.self_s", "s"),
    ("cli.report_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.spans", "count"),
]


class Tracer:
    """In-memory span recorder with a stack for parents, plus counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.scalar_calls: list[tuple[str, int, int]] = []
        self._stack = [-1]

    def call(self, name, fn, /, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1]))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3])

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a span around it; ``count(result, *args)``
        may return {counter: increment}; ``name`` may be a function of the args."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = self.call(label, fn, *args, **kwargs)
            if count is not None:
                for key, inc in count(result, *args, **kwargs).items():
                    self.counts[key] += inc
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        from rngaudit import battery, cli, generators, seedlab, spectral

        for cls, fam in ((generators.MT19937, "mt"), (generators.Lcg, "lcg"),
                         (generators.UniformGenerator, "wh")):
            self.wrap(cls, "generate", f"generators.bulk.{fam}",
                      lambda res, self_, n: {"generators.bulk_uniforms": n})
        self.wrap(cli, "brute_force_period", "generators.period_walk",
                  lambda res, params, cap: {"generators.period_steps": cap if res is None else res})
        self.wrap(cli, "save_sample", "generators.save_sample")
        self.wrap(cli, "load_sample", "generators.load_sample")
        for attr, label in (("t_test_mean", "t_test"), ("variance_test", "variance"),
                            ("levene_test", "levene"), ("ks_test_uniform", "ks"),
                            ("chi_square_gof", "chi2_gof"),
                            ("anderson_darling_uniform", "anderson_darling")):
            self.wrap(battery, attr, f"stats.{label}")
        self.wrap(cli, "run_battery", "battery.run",
                  lambda res, *a, **k: {"battery.results": len(res.results),
                                        "battery.rejections": res.n_rejections})
        for attr, label in (("global_uniformity", "uniformity"), ("permutation_test", "permutation"),
                            ("serial_test", "serial"), ("birthday_spacings_test", "birthday")):
            self.wrap(battery, attr, f"battery.{label}")
        self.wrap(cli, "spectral_accept", "spectral.accept")
        self.wrap(spectral, "spectral_accuracy_sq", lambda params, d: f"spectral.accuracy.d{d}")
        self.wrap(cli, "point_cloud", "spectral.point_cloud")
        self.wrap(cli, "export_cloud_csv", "spectral.export_csv",
                  lambda rows, *a, **k: {"spectral.csv_rows": rows})
        self.wrap(cli, "export_cloud_svg", "spectral.export_svg")
        self.wrap(cli, "seed_sweep", "seedlab.sweep")
        self._wrap_mc_estimate(seedlab)
        self.wrap(cli, "canonical_json", "cli.report")
        self.wrap(cli, "_atomic_write_text", "cli.report",
                  lambda res, path, text: {"cli.report_bytes": len(text.encode())})

    def _wrap_mc_estimate(self, seedlab):
        """Span per estimate; the stream class is swapped for a subclass that
        only records its instances, so the draws themselves run unwrapped."""
        streams = []

        class RecordingStream(seedlab.GaussianStream):
            def __init__(self, generator):
                super().__init__(generator)
                streams.append(self)

        seedlab.GaussianStream = RecordingStream

        def count(result, descriptor, seed, config=None):
            config = config or seedlab.ToyModelConfig()
            normals = config.paths * config.horizon_steps
            uniforms = 2 * -(-normals // 2) + streams.pop().zero_skips
            self.scalar_calls.append((descriptor, int(seed), uniforms))
            return {"seedlab.normals": normals}

        self.wrap(seedlab, "mc_estimate", "seedlab.mc_estimate", count)

    def replay_scalar(self):
        """Time the recorded number of ``next_uniform`` calls per estimate on fresh
        generators; runs after the round, outside its wall time."""
        from rngaudit.generators import make_generator

        total = 0.0
        for descriptor, seed, calls in self.scalar_calls:
            draw = make_generator(descriptor, seed=seed).next_uniform
            start = time.perf_counter()
            for _ in range(calls):
                draw()
            total += time.perf_counter() - start
        self.counts["generators.scalar_s"] = total
        self.counts["generators.scalar_uniforms"] = sum(c for _, _, c in self.scalar_calls)


def layer_metrics(spans, counts, wall_s):
    """Per-layer sums of one traced round, by metric name (no trace.overhead_s)."""
    total = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - child[i]
    commands = [k for k in total if k.startswith("cli.command.")]
    out = {key: 0.0 for key, _ in PER_LAYER}
    for fam in ("mt", "lcg", "wh"):
        out[f"generators.bulk_s.{fam}"] = total[f"generators.bulk.{fam}"]
    for name in ("period_walk", "save_sample", "load_sample"):
        out[f"generators.{name}_s"] = total[f"generators.{name}"]
    for label in ("t_test", "variance", "levene", "ks", "chi2_gof", "anderson_darling"):
        out[f"stats.{label}_s"] = total[f"stats.{label}"]
    for label in ("run", "uniformity", "permutation", "serial", "birthday"):
        out[f"battery.{label}_s"] = total[f"battery.{label}"]
    for d in range(2, 9):
        out[f"spectral.accuracy_s.d{d}"] = total[f"spectral.accuracy.d{d}"]
    for label in ("point_cloud", "export_csv", "export_svg"):
        out[f"spectral.{label}_s"] = total[f"spectral.{label}"]
    out["seedlab.mc_estimate_s"] = total["seedlab.mc_estimate"]
    out["seedlab.sweep_table_s"] = self_time["seedlab.sweep"]
    for cmd in ("test", "generate", "spectral", "period", "figures", "sweep"):
        out[f"cli.command_s.{cmd}"] = total[f"cli.command.{cmd}"]
    out["cli.self_s"] = sum(self_time[k] for k in commands)
    out["cli.report_s"] = total["cli.report"]
    out["trace.outside_s"] = wall_s - sum(total[k] for k in commands)
    out["trace.spans"] = len(spans)
    for key, value in counts.items():
        out[key] = value
    out["seedlab.self_s"] = out["seedlab.mc_estimate_s"] - out["generators.scalar_s"]
    if out["seedlab.mc_estimate_s"] > 0:
        out["seedlab.normals_per_s"] = out["seedlab.normals"] / out["seedlab.mc_estimate_s"]
    return out
