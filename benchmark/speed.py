"""Converts measured times to milliseconds at the machine's full speed.

The machine this benchmark was sized on is a VM whose host lends it a
CPU share that swings up to twofold over seconds to minutes, with no
steal time reported and no hardware counters.  Every timing is
therefore paired with a fixed reference kernel timed around it; the
reported time is the measured time scaled by REFERENCE_MS / (reference
time measured now), i.e. what the operation would have taken at the
speed at which the reference kernel runs in REFERENCE_MS.  Raw times
are kept alongside in the result file.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.linalg

# Fastest time of `_kernel` on the machine described in README.md
# (1213 samples over 30 s; the 1st percentile was 2.90 ms).
REFERENCE_MS = 2.8
# Between operations the kernel is re-timed when its last sample is at
# least this old, so a long operation is bracketed by two samples and
# short ones share the samples around them.
RESAMPLE_S = 0.1


class SpeedProbe:
    """Samples the reference kernel and scales times by the samples around them."""

    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((60, 60))
        self._at: list[float] = []  # end time of each sample
        self._ms: list[float] = []  # duration of each sample

    def _kernel(self) -> None:
        # two sorted real Schur factorizations: the eigen layer's unit of
        # work, LAPACK plus a Python callback per eigenvalue
        for _ in range(2):
            scipy.linalg.schur(self._matrix, output="real", sort=lambda re, im: re > 0)

    def sample(self, force: bool = False) -> None:
        """Time the kernel unless a sample younger than RESAMPLE_S exists."""
        if not force and self._at and time.perf_counter() - self._at[-1] < RESAMPLE_S:
            return
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self._at.append(t1)
        self._ms.append(1000.0 * (t1 - t0))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS / mean of the last sample before `start` and the
        first after `end`."""
        before = bisect.bisect_right(self._at, start) - 1
        after = bisect.bisect_left(self._at, end)
        picks = [self._ms[i] for i in (before, after) if 0 <= i < len(self._ms)]
        return REFERENCE_MS / (sum(picks) / len(picks))

    def median_ms(self) -> float:
        return float(np.median(self._ms))

    def timed(self, fn, *args):
        """(fn(*args), raw seconds, seconds at reference speed), bracketed
        by fresh samples."""
        self.sample(force=True)
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.sample(force=True)
        return out, t1 - t0, (t1 - t0) * self.scale(t0, t1)
