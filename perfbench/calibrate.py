"""Machine-speed calibration: a fixed kernel, timed every PERIOD_S while ops run.

On a shared VM the speed of one core drifts by up to 2x over seconds to
minutes, as other tenants contend for the host's cores and caches (steal time
stays near 1%, so the process is not descheduled; it runs slower). A run's
latency then says as much about the host as about the library. So every op
is also timed at a reference speed: its time multiplied by REFERENCE_S over
the mean kernel time of the samples taken while it ran, or of the last RECENT
samples for an op shorter than the sampling period. The kernel calls nothing
of the library: LAPACK eigh on a 10x10 matrix and a dict loop in the
interpreter, the two kinds of work the library's solver loop does. It runs in
a SIGALRM handler in the main thread, between bytecodes of the op it
interrupts, and its time is taken out of that op's time.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
REFERENCE_S = 2.0e-3    # typical kernel time on a 2-vCPU x86-64 VM (Xeon, 2.0 GHz)
RECENT = 5

_MATRIX = np.random.default_rng(0).standard_normal((10, 10))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> None:
    for _ in range(30):
        np.linalg.eigh(_MATRIX)
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i


class Calibrator:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, end) of each kernel run

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    @contextlib.contextmanager
    def running(self):
        """Sample once now, then every PERIOD_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def op_times(self, first: int, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, seconds at reference speed) of an op timed from t0 to t1,
        where `first` is the sample count read before t0."""
        inside = [end - start for start, end in self.samples[first:] if start >= t0 and end <= t1]
        seconds = t1 - t0 - sum(inside)
        if not inside:
            before = [end - start for start, end in self.samples if end <= t1]
            inside = before[-RECENT:]
        return seconds, seconds * REFERENCE_S / statistics.mean(inside)

    def kernel_seconds(self) -> float:
        return statistics.median(end - start for start, end in self.samples)
