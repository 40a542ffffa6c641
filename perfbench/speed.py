"""Machine-speed sampling, so that timings can be scaled to a fixed speed.

The shared 2-core host the benchmark was built on changes speed by up to
1.8x within a minute (the same act run took 0.60 to 1.11 s), which no bound
of 25% survives.  ``SpeedSampler`` times a fixed pure-Python reference job
every ``INTERVAL_S`` of wall time while the program runs, from a SIGALRM
handler, so the samples come from the moments the program's time is spent.
Program time is measured net of the handler's time and then multiplied by
``REFERENCE_S`` times the mean of 1 / (reference time) over the samples: the
time the work would take where the reference job takes ``REFERENCE_S``.
Measured on one act loop over 90 s, the scaled round time spread 2.9%
between quartiles where the wall time spread 28%.  ``speedcheck.py`` plants
slowdowns in the program to check that the scaled time still shows them.
"""
from __future__ import annotations

import gc
import random
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.025
REFERENCE_S = 0.001  # reference job time at the speed figures are scaled to


def reference_job() -> int:
    """A fixed pure-Python job of about a millisecond: hashing, sorting."""
    rng = random.Random(5)
    items = frozenset((rng.randrange(500), str(rng.randrange(50))) for _ in range(300))
    return len(dict(sorted(items)))


class SpeedSampler:
    """Samples the reference job's speed while a ``timed`` block runs.

    Use as a context manager; it owns the interval timer and the SIGALRM
    handler between ``__enter__`` and ``__exit__``.
    """

    def __init__(self):
        self.active = False
        self.stolen = 0.0
        self.inverse_sum = 0.0
        self.samples = 0
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        started = time.perf_counter()
        # a collection started by the job's allocations would scan the
        # program's heap and time that instead of the machine
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            reference_job()
        finally:
            if was_enabled:
                gc.enable()
        spent = time.perf_counter() - started
        self.inverse_sum += 1 / spent
        self.samples += 1
        self.stolen += time.perf_counter() - started

    @contextmanager
    def timed(self, elapsed: list):
        """Append the block's wall time, net of sampling, to ``elapsed``."""
        stolen = self.stolen
        self.active = True
        started = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - started
            self.active = False
            elapsed.append(wall - (self.stolen - stolen))

    def mark(self) -> tuple[float, int]:
        return self.inverse_sum, self.samples

    def scale(self, since: tuple[float, int], seconds: float) -> float:
        """``seconds`` at the reference speed, from the samples since ``mark``."""
        inverse, samples = self.inverse_sum - since[0], self.samples - since[1]
        if not samples:
            raise RuntimeError("no speed sample was taken; the timed work was too short")
        return seconds * REFERENCE_S * inverse / samples
