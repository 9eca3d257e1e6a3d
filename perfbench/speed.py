"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over tens of seconds, so the wall time of the same pass wanders by
more than any bound worth setting, however many passes a run takes.  A
fixed probe therefore samples the host's speed while a pass runs: every
INTERVAL_S seconds a SIGALRM handler times `probe_work` (a pure-Python loop,
NumPy on a short array and NumPy on a long complex array; no branchpoint_lab
code, so a change to the package cannot move it).  A pass's reference
seconds are its wall seconds, less the time spent in the handler, times the
mean of REFERENCE_PROBE_S / probe time over the samples taken during it:
the time the pass would take on a host where the probe takes
REFERENCE_PROBE_S.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# about the probe's time on a 2-core x86-64 host (Python 3.11, NumPy 2.4) in
# its faster spells; it only sets the scale of reference seconds
REFERENCE_PROBE_S = 1.6e-3
# a pass with fewer samples than this takes the rest right after it ends
MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_SHORT = _rng.random(64)
_LONG = _rng.random(20_000) + 1j * _rng.random(20_000)


def probe_work() -> None:
    s, d = 0.0, {}
    for i in range(2000):
        s += math.sqrt(i) * 0.5
        d[i & 255] = s
    for _ in range(30):
        np.cos(_SHORT).sum()
        np.exp(-_SHORT) * _SHORT
    np.abs(np.exp(_LONG)).sum()
    np.log(_LONG + 1.0).sum()


def probe() -> float:
    """Seconds one `probe_work` takes now."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Host speed relative to the reference host, from probe times."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in samples)


class SpeedSampler:
    """Samples the probe every INTERVAL_S seconds of wall time while entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall seconds spent inside the handler
        self._old = None

    def __enter__(self):
        probe_work()  # first-call costs stay out of the samples
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent_s += time.perf_counter() - t0

    def timed(self, fn):
        """Run `fn()`; returns (result, wall seconds net of the probe, reference seconds)."""
        n0, spent0 = len(self.samples), self.spent_s
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self.spent_s - spent0)
        samples = self.samples[n0:]
        samples += [probe() for _ in range(MIN_SAMPLES - len(samples))]
        return result, wall, wall * speed(samples)


def bracketed(fn, n: int = 10):
    """Run `fn()` between two bursts of `n` probes; returns (result, host speed).

    For work the sampler cannot interrupt, such as a child process the
    caller waits on.
    """
    before = [probe() for _ in range(n)]
    result = fn()
    after = [probe() for _ in range(n)]
    return result, speed(before + after)
