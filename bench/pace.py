"""A fixed loop that measures how fast this core runs now.

On a shared host the speed of one core drifts, by up to 1.8x, over windows
of seconds to whole minutes, and no median over one run removes it. The loop
is timed between the benchmark's calls, and their wall times are scaled to
what they would be with the loop at its nominal speed. The loop mixes
interpreted Python with calls on a small numpy array, as esokit's own calls
do: the drift slows the two by different factors, and of the loops tried
(pure Python, small numpy calls, a 400 x 400 matmul, this mix) the mix
tracked the benchmark's calls most closely.

A round is scaled by the median of the readings taken across it, not each
call by the readings next to it: a call of several seconds spans changes of
speed that its two neighbouring readings miss, and that per-call scaling
made the Monte-Carlo stages noisier than unscaled wall time.

The loop's time swings more than the calls' do. Over 10-seed runs of each
workload, the log of a stage's wall time per round moved by 0.35 to 0.72
times the log of the loop's time, so the scale is the loop's speed-up
raised to EXPONENT rather than the speed-up itself. Since the loop calls
nothing of esokit, any fixed exponent leaves a change to the program
moving the scaled time in the same proportion as the wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_X = np.arange(16.0)


class Pace:
    """Readings of a fixed loop's time, and the scale they give."""

    LOOP = 300
    REPEATS = 5
    # About the loop's time under CPython 3.11 on a 2-vCPU x86-64 cloud VM;
    # any fixed value works, since only ratios between runs are compared.
    NOMINAL_S = 2.0e-3
    EXPONENT = 0.75
    # ``now`` reuses a reading younger than this, so a burst of short calls
    # is not slowed down by readings.
    MAX_AGE_S = 0.1

    def __init__(self):
        self._at = float("-inf")
        self.readings: list[float] = []

    def sample(self) -> float:
        """Take a reading: the median of REPEATS timings of the loop."""
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            acc = 0.0
            for i in range(self.LOOP):
                acc += float((_X * 1.5 + 1.0).sum())
                for j in range(25):
                    acc += j * i
            times.append(perf_counter() - start)
        self.readings.append(statistics.median(times))
        self._at = perf_counter()
        return self.readings[-1]

    def now(self) -> float:
        if perf_counter() - self._at > self.MAX_AGE_S:
            return self.sample()
        return self.readings[-1]

    def scale(self, readings: list[float]) -> float:
        """(NOMINAL_S / median reading) ** EXPONENT."""
        return (self.NOMINAL_S / statistics.median(readings)) ** self.EXPONENT

    def timed(self, call):
        """(result, scaled seconds, wall seconds) of call()."""
        before = self.now()
        start = perf_counter()
        result = call()
        wall = perf_counter() - start
        return result, wall * self.scale([before, self.now()]), wall
