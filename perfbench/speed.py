"""Machine-speed calibration, and the timer that samples it inside a job.

On a shared machine the speed of a core drifts by a fifth or more within
seconds (neighbours on the sibling hyperthread, frequency changes), far
more than the changes the benchmark must resolve.  The benchmark times
a fixed pure-Python loop between jobs and, from an interval timer,
inside them, and scales every stretch of a job between two calibrations
by ``REFERENCE_S / (their mean time)``: timings are reported in seconds
at the speed at which the loop takes ``REFERENCE_S``, with the time of
the calibrations themselves left out.  The loop is one level of the
kind of search the engine makes, so the drift slows both alike.  It is
part of the benchmark: the program under test cannot change it.

Calibration has to run in the process whose time it scales, on the same
core at the same moment, so a CLI job calibrates inside its own
subprocess (see cli_child.py).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter

# About the loop's median time on the 2-core machine (2.1 GHz, Python 3.11)
# the benchmark was defined on.
REFERENCE_S = 0.0025
# The loop (~3 ms) runs about this often: between jobs when due, and from
# the timer inside a job.
INTERVAL_S = 0.2


class JobTimeout(BaseException):
    """Raised inside a job that passes its deadline; a BaseException so
    that no handler in the library can swallow it."""


# One level of a depth-first transposition search on 44 points: for each
# of the 946 transpositions, follow the permutation from one end until it
# reaches either end, then swap.  The pair list is larger than a level-1
# cache, as in the engine's wide searches.
_POINTS = 44
_PAIRS = [(a, b) for a in range(_POINTS) for b in range(a + 1, _POINTS)]
_ROUNDS = 6


def loop() -> int:
    # a permutation of 4-cycles: 0->1->2->3->0, 4->5->6->7->4, ...
    perm = [i - 3 if i % 4 == 3 else i + 1 for i in range(_POINTS)]
    acc = 0
    for _ in range(_ROUNDS):
        for a, b in _PAIRS:
            y = perm[a]
            while y != a and y != b:
                y = perm[y]
            acc += y == b
            perm[a], perm[b] = perm[b], perm[a]
    return acc


class Speed:
    """The calibration loop's times along a run, and the scaling of a
    stretch of the run to the reference speed."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) of each loop
        self._deadline: float | None = None

    def calibrate(self) -> None:
        start = perf_counter()
        loop()
        self.marks.append((start, perf_counter()))

    def due(self) -> bool:
        return perf_counter() - self.marks[-1][1] >= INTERVAL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end] outside the
        calibrations.  Each piece between two calibrations is scaled by
        their mean; a calibration must precede and follow the stretch."""
        starts = [a for a, _b in self.marks]
        first = bisect.bisect_right(starts, start) - 1
        last = bisect.bisect_left(starts, end)
        total, t = 0.0, start
        for left, right in zip(self.marks[first:last], self.marks[first + 1:last + 1]):
            speed = ((left[1] - left[0]) + (right[1] - right[0])) / 2
            total += (min(right[0], end) - t) * REFERENCE_S / speed
            t = right[1]
        return total

    def _on_timer(self, signum, frame) -> None:
        if self._deadline is not None and perf_counter() >= self._deadline:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raise JobTimeout()
        self.calibrate()

    @contextlib.contextmanager
    def sampling(self, deadline: float | None = None):
        """Calibrate every INTERVAL_S while the block runs and, given a
        deadline, raise JobTimeout in the block once it has passed."""
        self._deadline = deadline
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
