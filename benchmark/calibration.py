"""Machine-speed calibration: a fixed reference kernel timed between operations.

On a shared machine other tenants slow every operation by a factor that
drifts over seconds and minutes; here the same decode ran up to 1.6 times
slower, and its CPU time grew with its wall time. The benchmark times a
fixed kernel, plain numpy and Python with no ctcnat code, next to the
operations it measures. It scales each operation's time by REFERENCE_MS
over the median kernel time of the NEAREST samples or, for a long call
such as ``train()``, of the samples a timer signal takes during the call.
Timings are therefore in reference milliseconds: the time on a machine
whose kernel takes exactly REFERENCE_MS. The kernel's time is the unit of
every timing metric, so the kernel must never change.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 1.0
NEAREST = 5
SAMPLE_INTERVAL_S = 0.1  # between the samples ``sampling`` takes

_rng = np.random.default_rng(20181112)
_X = _rng.standard_normal((24, 64))
_W1 = _rng.standard_normal((64, 256)) / 8
_W2 = _rng.standard_normal((256, 64)) / 16


def kernel():
    """Small matrix products, normalizations and softmaxes, then a loop of
    dictionary merges in log space: the mix of a ctcnat decode."""
    x = _X
    for _ in range(6):
        h = np.maximum(x @ _W1, 0.0) @ _W2
        x = (h - h.mean(-1, keepdims=True)) / (h.std(-1, keepdims=True) + 1e-6)
        s = x @ x.T
        s = np.exp(s - s.max(-1, keepdims=True))
        x = (s / s.sum(-1, keepdims=True)) @ x
    merged: dict[tuple[int, int], float] = {}
    for i in range(600):
        key = (i % 13, i % 7)
        v = -0.1 * (i % 11)
        prev = merged.get(key)
        merged[key] = v if prev is None else max(prev, v) + math.log1p(math.exp(-abs(prev - v)))
    return x, merged


class Calibration:
    """Kernel samples taken during a run, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the start of each sample
        self.ms: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.times.append(start)
        self.ms.append((time.perf_counter() - start) * 1e3)

    def scale(self, t: float) -> float:
        """REFERENCE_MS over the median kernel time of the samples nearest to t."""
        i = bisect.bisect(self.times, t)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        near = sorted(window, key=lambda j: abs(self.times[j] - t))[:NEAREST]
        return REFERENCE_MS / statistics.median(self.ms[j] for j in near)

    def scale_over(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median kernel time of the samples taken
        between start and end."""
        return REFERENCE_MS / statistics.median(
            ms for t, ms in zip(self.times, self.ms) if start <= t <= end)

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_INTERVAL_S of wall time while the block
        runs. A SIGALRM handler runs the kernel in the main thread between
        two bytecodes of whatever runs there, so nothing in the measured code
        is patched; only the samples' own time has to be subtracted."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
