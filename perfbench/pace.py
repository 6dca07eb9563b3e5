"""Machine pace sampled during each job, to put job times on one scale.

On a shared host the same code runs at different speeds from one minute to
the next: a pure-Python loop on a 2-core cloud VM was seen to take 0.30 ms
in one stretch and 0.52 ms in the next, in alternating stretches of a few
seconds.  A job's wall time mixes that drift with the program's own cost.

``PaceClock`` separates the two.  While a job runs, a SIGALRM interval timer
interrupts it every ``PERIOD`` seconds, and the handler times one fixed tick
of reference work (small-Fraction arithmetic; no program code).  The handler
runs in the job's own thread, on the CPU the job is using, between two
bytecodes of the job.  If the machine delivers speed s(t), tick i takes
about c / s(t_i), so the work the job received is proportional to

    (wall - time spent in ticks) * mean(REFERENCE_TICK_S / tick_i),

which is the job's time on a machine whose tick takes ``REFERENCE_TICK_S``.
The ticks cost about 0.5% of a job; their time is subtracted.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1  # seconds between ticks
REFERENCE_TICK_S = 0.0004  # a tick's duration on the reference machine


def tick() -> float:
    """Seconds of one fixed piece of reference work."""
    start = time.perf_counter()
    acc = Fraction(1, 3)
    for k in range(1, 60):
        acc = acc * Fraction(k, 7) + Fraction(1, k)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 999983 + 1)
    return time.perf_counter() - start


class PaceClock:
    """Times a block of code in wall seconds and in reference seconds."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def __enter__(self) -> "PaceClock":
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def tick_s(self) -> float:
        return sum(self.ticks)

    @property
    def ref_s(self) -> float:
        """The block's time in reference seconds (wall time if no tick fired)."""
        if not self.ticks:
            return self.wall_s
        pace = statistics.fmean(REFERENCE_TICK_S / t for t in self.ticks)
        return (self.wall_s - self.tick_s) * pace
