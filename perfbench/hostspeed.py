"""Host-speed normalisation of timings.

The shared host this benchmark was built on changes speed by up to 2x
within minutes (frequency and neighbour load), so raw seconds from two
runs a few minutes apart are not comparable.  A fixed calibration
kernel, independent of the package, is timed between jobs, about every
half second of job time; each job's seconds are multiplied by
``NOMINAL_S / k``, where ``k`` is the mean of the two calibrations that
bracket it.  The results are seconds at the speed at which the kernel
takes ``NOMINAL_S``.  Raw seconds are kept alongside.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.025    # calibration kernel time that defines the nominal speed
SEGMENT_S = 0.5      # job seconds between two calibrations

_X = np.arange(1, 401, dtype=np.float64) / 7.0


def calibrate():
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    the same mix the package's hot paths consist of."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(2400):
        acc += float((_X ** 1.3).sum()) + float(np.abs(_X - i).max())
        acc += sum({j: j * 0.5 for j in range(12)}.values())
    return perf_counter() - t0


class Clock:
    """Collects raw job seconds and rescales them segment by segment."""

    def __init__(self):
        self.last = calibrate()
        self.pending = []
        self.raw = []
        self.scaled = []

    def record(self, seconds):
        self.pending.append(seconds)
        if sum(self.pending) >= SEGMENT_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        k = calibrate()
        scale = NOMINAL_S / (0.5 * (self.last + k))
        self.raw += self.pending
        self.scaled += [s * scale for s in self.pending]
        self.pending = []
        self.last = k


def scale_once(seconds):
    """Rescale a single measured interval by calibrations taken right after it."""
    k = sorted(calibrate() for _ in range(3))[1]
    return seconds * NOMINAL_S / k
