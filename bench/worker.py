"""One round of a workload, in a fresh interpreter.

Usage: python3 worker.py ROUND_JSON RESULT_JSON [--trace]
       python3 worker.py --setup RESULT_JSON

The first thing the process does is the set-up a user pays before the
first command: import rngaudit and build the argument parser.  Then it
runs every command of the round through ``rngaudit.cli.main`` with the
argv a shell user would type, and writes its timings, exit codes and
peak resident memory (and with --trace the spans) to RESULT_JSON.
"""

import time

_START = time.perf_counter()
import rngaudit.cli as cli  # noqa: E402

_IMPORTED = time.perf_counter()
cli.build_parser()
_READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


def main(argv):
    setup = {"setup_s": _READY - _START, "import_s": _IMPORTED - _START}
    if argv[0] == "--setup":
        _write(argv[1], setup)
        return
    trace = "--trace" in argv
    ops_path, result_path = [a for a in argv if a != "--trace"]
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes, times = [], []
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.start()
    for op in ops:
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(op["argv"])
        else:
            code = tracer.call(f"cli.command.{op['kind']}", cli.main, op["argv"])
        times.append(time.perf_counter() - t0)
        codes.append(code)
    probe.stop()
    raw = time.perf_counter() - start
    result = dict(setup, raw_wall_s=raw, wall_s=probe.scale(raw), speed=probe.speed(),
                  codes=codes, times=times, peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        tracer.replay_scalar()
        result.update(spans=tracer.spans, counts=tracer.counts)
    _write(result_path, result)


class SpeedProbe:
    """Samples the machine's speed while the round runs.

    Every ``PERIOD_S`` a timer signal runs a fixed pure-Python kernel
    between two bytecodes of the program and times it.  On a shared
    host the speed drifts by 10-20% over seconds to minutes; the round
    time divided by the kernel's mean time, times the kernel's time on
    the reference machine, cancels most of that drift (coefficient of
    variation over rounds of ``audit``: 8.5% raw, 3.5% scaled).  The
    program never calls the kernel, so a change to the program moves
    the scaled time as much as the raw one.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 5e-4  # the kernel's time on the machine of the reference figures

    def __init__(self):
        self.samples: list[float] = []

    def _kernel(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(2000):
            s = (s * 69069 + i) % 4294967296
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self) -> float:
        """Mean kernel time over the reference time: > 1 on a slow stretch."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / self.REFERENCE_S

    def scale(self, raw_s: float) -> float:
        """Round time without the kernels, at the reference speed."""
        return (raw_s - sum(self.samples)) / self.speed()


def peak_rss_mb():
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the address space made by exec; ``ru_maxrss`` would
    also count the parent's pages from before the exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
