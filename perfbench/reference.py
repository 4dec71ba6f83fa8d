"""Reference kernels: fixed work, independent of qcycle, that gauges the
machine's current speed.

On a shared host the speed of one core drifts by a third and more within
seconds, and the drift reaches every process alike: process CPU time follows
wall time. ``run.py`` therefore samples the speed all through the timed
phase: a ``Gauge`` runs one reference call every PERIOD_S of wall time from
a timer signal, in the middle of the ops, and every op time is expressed in
reference calls: the op's own seconds (the samples taken inside it
subtracted) divided by the median time of the reference calls made during
it and within WINDOW_S on either side. A change to qcycle moves the op time and
leaves the reference alone, so it moves the normalised figure in full.

Each kernel imitates the kind of work its workload spends its time on, so
that a slow period slows both alike. ``mixed`` (``optimize`` and
``feasibility``) is half small numpy arrays and interpreter work, like the
optimizer's evaluator and simplex bookkeeping, and half row operations on a
dense float tableau, like the phase-1 simplex. ``blend`` (``cli``) adds as
much chunked integer enumeration over large arrays (``bulk``), like the
classical bound, which takes most of that workload's time while its median
op is small interpreter work. Of the kernels tried, these tracked their
workload's op times best. A call takes 2 to 4 ms; its result is returned so
that no work can be skipped.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left

import numpy as np

PERIOD_S = 0.02
WINDOW_S = 0.1
MIN_SAMPLES = 3

_ROTATION = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_TABLEAU = np.random.default_rng(0).uniform(0.5, 1.5, (24, 1040))
_BULK_BITS = np.arange(17, dtype=np.int64)
_BULK_SIGNS = np.resize(np.array([1, -1, 1, 1], dtype=np.int64), 18)


def small() -> float:
    """2x2 complex products, six-point argsort and means, float math."""
    m = np.eye(2, dtype=complex)
    points = [np.full(4, 0.1 * k) for k in range(6)]
    acc = 0.0
    for i in range(30):
        m = _ROTATION @ m
        order = np.argsort([float(p[0]) for p in points], kind="stable")
        points = [points[j] for j in order]
        centre = np.mean(points[:-1], axis=0)
        points[-1] = centre + 0.5 * (centre - points[-1])
        acc += math.cos(0.01 * i) * float(m[0, 0].real) + float(centre[0])
    return acc


def rows() -> float:
    """Pivot steps on a dense tableau: ratio test, row scaling, eliminations."""
    t = _TABLEAU.copy()
    for step in range(9):
        col = 7 * step + 1
        column = t[:, col]
        positive = np.nonzero(column > 1e-9)[0]
        if positive.size:
            row = int(positive[np.argmin(t[positive, -1] / column[positive])])
        else:
            row = step % t.shape[0]
        t[row, :] /= t[row, col]
        for r in range(t.shape[0]):
            if r != row:
                t[r, :] -= t[r, col] * t[row, :]
    return float(t[0, -1])


def bulk() -> float:
    """Signed sums over a block of 2^13 +-1 assignments of 18 variables."""
    idx = np.arange(1 << 13, dtype=np.int64)
    x = np.empty((idx.size, 18), dtype=np.int8)
    x[:, 0] = 1
    x[:, 1:] = 1 - 2 * ((idx[:, None] >> _BULK_BITS) & 1)
    terms = (x * np.roll(x, -1, axis=1)).astype(np.int64)
    return float((terms @ _BULK_SIGNS).min())


def mixed() -> float:
    return small() + rows()


def blend() -> float:
    return 0.5 * (mixed() + bulk())


KERNELS = {"mixed": mixed, "blend": blend}


class Gauge:
    """Samples the machine's speed: one reference call every PERIOD_S from
    a SIGALRM handler, which runs between the ops' bytecodes in the main
    thread. Use as a context manager around the timed phase."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.starts = array("d")
        self.durations = array("d")
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, t0: float, t1: float) -> slice:
        return slice(bisect_left(self.starts, t0), bisect_left(self.starts, t1))

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of reference calls that started between t0 and t1."""
        return sum(self.durations[self._span(t0, t1)])

    def call_seconds(self, t0: float, t1: float) -> float:
        """Median seconds of one reference call from t0 - WINDOW_S to
        t1 + WINDOW_S, or of the MIN_SAMPLES nearest on either side if fewer
        fall there; the median, because a call that the host preempts takes
        several times as long as its neighbours."""
        span = self._span(t0 - WINDOW_S, t1 + WINDOW_S)
        lo, hi = span.start, span.stop
        if hi - lo < MIN_SAMPLES:  # a long C call held the signal back
            lo, hi = max(0, lo - MIN_SAMPLES), min(len(self.durations), hi + MIN_SAMPLES)
        return statistics.median(self.durations[lo:hi])
