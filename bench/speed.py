"""How the benchmark measures the machine's speed.

On a machine whose cores are shared with other tenants, the speed of the
interpreter flips by a third from one second to the next and drifts over
minutes, and every time of a run moves with it.  The benchmark therefore
reports every time at a nominal speed.  While an op runs, the process
that does its work times a fixed loop over the standard library every
SAMPLE_EVERY_S and once at the end (`Sampler`); the op's time, less the
time spent sampling, is multiplied by NOMINAL_S over the loop's mean
time.  Only the working process can sample its own speed: a cold-verify
parent waits on another CPU, whose speed is another.

The loop makes no reference cycles and runs with the garbage collector
off, so that the size of veechlab's heap and caches does not move it.
This module imports nothing from the benchmark or from veechlab, so that
a cold-verify child can load it at almost no cost.
"""

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.005
SAMPLE_EVERY_S = 0.1


def reference_seconds() -> float:
    """Time of one run of the reference loop: small rationals and tuples,
    the kind of work the library's field arithmetic does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = []
        for i in range(1, 600):
            a = Fraction(i % 7 + 1, i % 5 + 2)
            b = Fraction(i % 11 + 1, i % 3 + 2)
            out.append((a * b + a - b, i))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples this process's speed while the code in its `with` block
    runs: a timer signal times the reference loop every SAMPLE_EVERY_S,
    and the loop runs once more on leaving the block, so that even a
    short block has a sample.  Only the main thread may use it."""

    def __init__(self):
        self.samples = []
        self.sampling_s = 0.0

    def _sample(self, *_signal):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.sampling_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def report(self) -> dict:
        return {"samples": self.samples, "sampling_s": self.sampling_s}


def at_own_speed(record: dict, report: dict) -> dict:
    """Apply a Sampler's report to a timed record: the sampling time is
    not the record's time, and its factor to the nominal speed comes from
    its own samples."""
    record["seconds"] -= report["sampling_s"]
    record["samples"] = report["samples"]
    samples = report["samples"]
    record["scale"] = NOMINAL_S * len(samples) / sum(samples)
    return record
