"""Wall time rescaled to a reference machine speed.

The machines this benchmark runs on share their cores with other
tenants, and their speed swings by up to 2x within a second (no steal
time is reported; process CPU time tracks wall time).  Raw timings of
one run therefore vary by +-25% from the next.  To remove that, the
benchmark interleaves short bursts of a fixed calibration kernel with
the program's work, about every ``BURST_EVERY_S`` seconds, and rescales
each stretch of work between two bursts by ``REF_S / d``, where ``d`` is
the mean duration of the two bursts that bracket it.  A stretch run
while the machine was at half speed is thus counted at the reference
speed.  The burst time itself is never counted as work.

The kernel mixes what dlstrata spends its time on: small int32 table
lookups, ``np.nonzero`` on short columns and Python integer arithmetic.
It is benchmark code and must not change, or the rescaled figures of
different commits stop being comparable.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel duration on the machine the baseline was recorded on
# (2-core Intel Xeon VM, Python 3.11, numpy 2.4).
REF_S = 0.007
BURST_EVERY_S = 0.15

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 16, (16, 16)).astype(np.int32)
_MAT = _rng.integers(0, 16, (4, 8)).astype(np.int32)


def now() -> float:
    """Monotonic time that agrees across processes of one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kernel(rounds: int) -> int:
    x = _MAT
    acc = 0
    for i in range(rounds):
        if np.nonzero(x[:, i & 7])[0].size:
            x = _TABLE[x, _MAT]
        acc += int(x[i & 3, 0]) * 3 % 7
    return acc


def burst() -> tuple[float, float, float]:
    """Run the kernel once; return (start, end, timed duration)."""
    start = now()
    _kernel(8)  # warm the code path; untimed
    t0 = now()
    _kernel(1000)
    end = now()
    return start, end, end - t0


def _stretches(bursts: list[tuple[float, float, float]], a: float, b: float):
    """(seconds of work in [a, b], durations of the two bracketing bursts)
    for each gap between consecutive bursts; ``bursts`` sorted by start."""
    for (_, end0, d0), (start1, _, d1) in zip(bursts, bursts[1:]):
        lo, hi = max(a, end0), min(b, start1)
        if hi > lo:
            yield hi - lo, d0, d1


def rescaled(bursts: list[tuple[float, float, float]], a: float, b: float) -> float:
    """Reference-speed seconds of work in [a, b], bursts excluded: each gap
    is scaled by REF_S over the mean duration of its two bursts."""
    return sum(w * 2.0 * REF_S / (d0 + d1) for w, d0, d1 in _stretches(bursts, a, b))


def raw(bursts: list[tuple[float, float, float]], a: float, b: float) -> float:
    """Unscaled seconds of work in [a, b], bursts excluded."""
    return sum(w for w, _, _ in _stretches(bursts, a, b))


class Pacer:
    """Runs a burst whenever BURST_EVERY_S of work has passed."""

    def __init__(self) -> None:
        self.bursts: list[tuple[float, float, float]] = []
        self._next = 0.0

    def tick(self) -> float:
        """Maybe burst; return the time spent bursting (0.0 if none)."""
        t = now()
        if t < self._next:
            return 0.0
        b = burst()
        self.bursts.append(b)
        self._next = b[1] + BURST_EVERY_S
        return b[1] - b[0]
