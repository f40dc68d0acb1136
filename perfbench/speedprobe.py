"""Speed probe: a fixed kernel timed while the benchmark runs, to scale its
times to one reference speed of the host.

The host this benchmark was written on is shared, and its speed drifts in
phases of tens of seconds (a fixed NumPy loop ran 0.7x-1.45x its median
speed), which moves every timing of the program with it. The probe runs a
small kernel that does not touch the package under test, of the same kind as
the program's work: small dense LAPACK calls (Hermitian eigendecomposition,
log-determinant, thin SVD) and an interpreted loop over NumPy scalars. While
it is armed, a ``SIGALRM`` interval timer runs one sample every
``INTERVAL_S`` seconds inside whatever the program is doing, so the samples
see the speed the program ran at. A caller subtracts the probe's own time
(``busy``) from what it timed and multiplies by ``factor``, the reference
sample time over the mean measured one: that gives seconds at the reference
speed. The mean, not the median: the host flips between a fast and a slow
state within a second, so sample times have two modes, and the program's
time is set by the share of time spent in each.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Duration of one sample at the reference speed, about its mean on a 2-core
# x86-64 host (Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31 with one thread),
# where it ranged 1.3-2.8 ms.
REF_SAMPLE_S = 0.002
INTERVAL_S = 0.1
REPEATS = 6


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(1507)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._herm = a @ a.conj().T + np.eye(16)
        self._dense = rng.standard_normal((32, 32))
        self._vec = rng.standard_normal(64)
        self.samples = []  # (start, end) of every sample, in perf_counter seconds
        self._previous = None
        self._kernel()  # first LAPACK calls pay one-off set-up; not a sample

    def _kernel(self):
        for _ in range(REPEATS):
            w, v = np.linalg.eigh(self._herm)
            np.linalg.slogdet(self._herm)
            _ = (v * w) @ v.conj().T
            np.linalg.svd(self._dense, full_matrices=False)
            x = self._vec.copy()
            for j in range(x.size):
                x[j] = x[j] * 0.5 + 1.0 if x[j] < 0 else x[j] - 0.25

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself ran between start and end."""
        return sum(b - a for a, b in self.samples if a >= start and b <= end)

    def factor(self, first: int = 0, at_least: int = 10) -> float:
        """Reference over measured speed, from the samples taken since index
        ``first``; tops them up to ``at_least`` samples first."""
        while len(self.samples) - first < at_least:
            self.sample()
        return REF_SAMPLE_S / statistics.fmean(b - a for a, b in self.samples[first:])
