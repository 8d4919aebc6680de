"""A fixed pure-Python yardstick for the host's speed at the moment.

The benchmark runs on a few cores of a shared host whose speed swings
by a third or more over seconds to minutes: a fixed loop takes 30-50%
longer while a neighbour is busy, and the program slows with it.  Every
run therefore times a fixed piece of work in short blocks between the
measured operations, while the program is idle.  A measured time
divided by the host's slowdown around it (the median slice time of the
blocks just before and after it, over :data:`NOMINAL_SLICE_S`) is the
time on a host where one slice takes :data:`NOMINAL_SLICE_S`; every
end-to-end time is reported so.  The yardstick does not import the
program, so a change to the program moves the normalised figures by its
full effect.

The slice is an integer loop.  Timed beside stream-churn refreshes,
one block per 0.25 s of them, for 60 s, the spread (IQR / median) of
the refresh time's 2-second medians was 0.17-0.19, and 0.08 once
divided by this loop's time.  A graph walk over 2k-20k nodes of sets
and dicts, closer to the program's own work, left 0.12-0.14: its speed
swung further than the program's, or less, from one minute to the next.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one slice: about 4 ms on the reference host.
ITERATIONS = 40_000
#: One slice's time on the reference host, a 2-core Xeon VM, Python
#: 3.11, in its usual (contended) state.  Normalised times are in that
#: host's seconds.
NOMINAL_SLICE_S = 0.004


def _slice() -> int:
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return total


class Yardstick:
    """The slices timed in one run."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.last: float | None = None

    def block(self, seconds: float) -> float:
        """Slices for at least ``seconds`` (and at least three); returns
        the host's slowdown over the block: median slice / nominal."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < 3 or time.perf_counter() < deadline:
            started = time.perf_counter()
            _slice()
            times.append(time.perf_counter() - started)
        self.slices.extend(times)
        self.last = statistics.median(times) / NOMINAL_SLICE_S
        return self.last

    def after(self, seconds: float) -> float:
        """A block timed after a measured stretch; returns the host's
        slowdown over that stretch: the mean of this block's reading and
        the previous block's, which came just before the stretch (this
        block's alone when it is the run's first)."""
        before = self.last
        reading = self.block(seconds)
        return reading if before is None else (before + reading) / 2

    def slowdown(self) -> float:
        """The host's slowdown over every slice of the run so far."""
        return statistics.median(self.slices) / NOMINAL_SLICE_S
