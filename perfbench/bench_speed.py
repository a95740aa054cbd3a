"""Host speed, from a fixed calibration loop run between timed stretches of work.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
a factor of two within minutes as other tenants come and go; the same reference
batch took 4.4 s of CPU time in one minute and 9.8 s a few minutes later.
Averaging inside one run cannot remove a drift that slow.  So each timed
stretch of interpreter-bound work (one ladder cell, one run of the reference
batch, one set-up) is bracketed by two samples of a fixed loop of
interpreted Python and 12 x 12 solves, and its time is scaled to the speed at
which one sample takes ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(sample before, sample after)

The drift slows interpreted Python far more than large array scans, and
neither this loop nor a loop of scans tracked the scan-bound rectifier cell
better than no scaling at all, so each workload chooses (``Workload.scaled``).
The loop belongs to the benchmark, not to the program, so a faster program
gives a proportionally smaller scaled time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPEATS = 5
# About the fastest sample (median of REPEATS, allocator pinned as in run.py)
# seen on the 2-core Xeon VM the baseline was measured on.  It only fixes the
# unit: scaled times read as seconds on that machine when uncontended.
REFERENCE_S = 0.0115

_A = np.eye(12) * 4.0 + np.sin(np.arange(144.0)).reshape(12, 12)
_B = np.cos(np.arange(12.0))


def _loop() -> float:
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    x = _B
    for _ in range(750):
        x = np.linalg.solve(_A, _B + 1e-3 * x)
        acc += float(np.abs(_A @ x - _B).max())
    return acc


def sample() -> float:
    """Median time of REPEATS runs of the calibration loop, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between samples `before` and `after`, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class Meter:
    """Unscaled and scaled time of stretches of work, summed.

    `start` takes the first sample.  `resume` starts a stretch; `mark` ends
    it, takes a sample and starts the next one.  Time spent sampling, and
    time between a `mark` and the next `resume`, is not counted.  With
    `enabled` false no samples are taken and the scaled time is the measured
    one.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.seconds = 0.0
        self.scaled = 0.0
        self._before = math.nan
        self._t0 = math.nan

    def start(self) -> None:
        if self.enabled:
            self._before = sample()

    def resume(self) -> None:
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        seconds = time.perf_counter() - self._t0
        self.seconds += seconds
        if self.enabled:
            after = sample()
            self.scaled += scale(seconds, self._before, after)
            self._before = after
        else:
            self.scaled += seconds
        self._t0 = time.perf_counter()
