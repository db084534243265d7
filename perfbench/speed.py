"""Machine-speed normalisation of timed calls.

On the shared 2-core machine (CPython 3.11.7) this benchmark was built on,
the speed of pure-Python work changes by 20-40 % within seconds when other
tenants load the host, and no run length averages that away.  So while a
call is timed, a timer signal runs a short probe of fixed pure-Python work
(exact fractions, dicts, big integers, as in the program) every INTERVAL_S,
and once before and once after the call.  The probe's own time is taken out
of the call's time, and the call is reported at the reference speed, where
one probe takes REF_PROBE_S:

    normalised = (wall - probe time inside) * REF_PROBE_S / mean probe

The probe runs no program code, so a change to the program moves normalised
times as it moves wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_PROBE_S = 0.001
INTERVAL_S = 0.05


def probe_kernel() -> int:
    acc: dict[int, Fraction] = {}
    x = 1
    for i in range(1, 170):
        acc[i % 61] = acc.get(i % 61, 0) + Fraction(i, i + 3) * Fraction(i + 1, 7)
        x = (x * 1000003 + i) % (1 << 127)
    return x


class SpeedMeter:
    """Probe samples taken around and during one timed call."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0               # probe seconds spent inside the call

    def sample(self) -> float:
        start = time.perf_counter()
        probe_kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.inside += self.sample()

    @contextmanager
    def timing(self):
        """Time the body; yields a dict whose "seconds" excludes the probes."""
        self.sample()
        out = {}
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            out["seconds"] = time.perf_counter() - start - self.inside
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @property
    def probe_s(self) -> float:
        return statistics.fmean(self.samples)


def normalised(seconds: float, probe_s: float) -> float:
    return seconds * REF_PROBE_S / probe_s
