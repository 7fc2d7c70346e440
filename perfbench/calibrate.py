"""Host speed, measured by a fixed calibration loop interleaved with the ops.

This machine is a few cores of a shared host, and its speed drifts: the same
op takes up to 1.7 times as long a few minutes later, in CPU time as well as
wall time. A run cannot outlast that drift, so the end-to-end timings are
scaled to a reference host speed. After every timed interval the clock runs
a fixed loop of small numpy and interpreter steps, of the kind somcell's
training and settle loops make, for a share of that interval's length. The
interval's host factor is the loop's seconds per unit around it, before and
after, divided by ``REF_UNIT_S``; its time at reference speed is its wall
time divided by that factor.

The loop uses only numpy and this file, never ``somcell``, so a change to the
program moves the scaled times exactly as it moves the wall times measured at
one host speed. The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds per unit of the loop below, about a typical reading between ops on 2
# cores of a shared x86-64 host with Python 3.11 and numpy 2.4. It sets the
# scale of the reported times; it is fixed, so runs on different days compare.
REF_UNIT_S = 1.0e-3

_rng = np.random.default_rng(20110105)
_POINTS = _rng.random((120, 40))
_CENTERS = _POINTS[:6].copy()
_CODEBOOK = _rng.random((30, 40))
_LATTICE = _rng.random((30, 30))
_KEYS = [tuple(_rng.integers(0, 9, 6).tolist()) for _ in range(60)]


def unit() -> None:
    """One calibration unit: SOM-style updates, a k-means step and dict counting."""
    codebook = _CODEBOOK.copy()
    for s in range(24):
        diff = _POINTS[s] - codebook
        d2 = np.zeros(codebook.shape[0])
        for j in range(0, 40, 8):
            d2 += diff[:, j] * diff[:, j]
        best = int(np.argmin(d2))
        codebook += (0.1 * np.exp(-_LATTICE[best]))[:, None] * diff
    centers = _CENTERS.copy()
    d2 = ((_POINTS[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    for c in range(centers.shape[0]):
        members = _POINTS[labels == c]
        if members.shape[0]:
            centers[c] = members.mean(axis=0)
    counts: dict = {}
    for key in _KEYS:
        for x in key:
            counts[x] = counts.get(x, 0) + 1


class Stopwatch:
    """Wall time of one interval at a time: ``begin()``, then ``end()`` returns seconds."""

    scale = 1.0  # reported seconds per wall second of the last interval

    def begin(self) -> None:
        self._t = time.perf_counter()

    def end(self) -> float:
        return time.perf_counter() - self._t

    def factor(self) -> float:
        """Host factor: seconds at this host's speed per second at reference speed."""
        return 1.0


class HostClock(Stopwatch):
    """A stopwatch whose intervals read in seconds at the reference host speed.

    ``end()`` calibrates for ``SHARE`` of the interval just timed, outside
    the interval, and scales the interval by the mean of the host factors
    measured before and after it.
    """

    SHARE = 0.15
    MIN_SAMPLE_S = 0.03  # about 30 units, so one sample's own noise is a few percent
    MAX_SAMPLE_S = 0.5  # a set-up is one long interval; this much pins its factor

    def __init__(self):
        self.calibration_s = 0.0
        self._before = self.sample(4 * self.MIN_SAMPLE_S)
        self.restart_totals()

    def restart_totals(self) -> None:
        self.raw_s = 0.0  # wall time of the intervals timed since the restart
        self.scaled_s = 0.0  # the same intervals at reference speed
        self.calibration_s = 0.0  # time spent in the loop

    def sample(self, seconds: float) -> float:
        """Host factor: seconds per unit over at least ``seconds`` of the loop, / REF_UNIT_S."""
        units = 0
        start = time.perf_counter()
        while True:
            unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                self.calibration_s += elapsed
                return elapsed / units / REF_UNIT_S

    def factor(self) -> float:
        return self._before  # the last measured

    def end(self) -> float:
        raw = super().end()
        after = self.sample(min(self.MAX_SAMPLE_S, max(self.MIN_SAMPLE_S, self.SHARE * raw)))
        self.scale = 1.0 / (0.5 * (self._before + after))
        scaled = raw * self.scale
        self._before = after
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled
