"""Wall time, and wall time converted into reference seconds.

On a host whose cores are shared with other tenants, a core's speed drifts by
20 to 90 percent over seconds to minutes, independently on each core, and a
call's wall time drifts with it. `Clock.timing` therefore also times a fixed
loop of small Python function calls on floats before the call, after it, and
every INTERVAL_S seconds during it from a SIGALRM handler. The call's seconds
exclude the loops run inside it; its reference seconds are those seconds times
REF_S over the mean loop time, which is what the call would take at the speed
where the loop takes REF_S. The loop never touches the library, so a change to
the library moves reference seconds as it moves seconds.

The loop mimics the integrands and solver steps the library spends its time
in: on a 2-vCPU shared host, the time of every job measured scaled with it
one to one across slow and fast phases (log-log slope 0.9 to 1.05), where a
bare integer-add loop understated slow phases (slope 1.15 to 1.35).

Importing this module imports no numpy, so a fresh interpreter can start the
clock before it imports the package.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the call, minus the loops run inside it
    ref_seconds: float = 0.0  # the same at the reference speed


def _unit(u: float) -> float:
    return (1.0 - u**3) * 0.7 / (1.0 + u)


class Clock:
    REF_S = 0.001
    LOOP = 4_000
    INTERVAL_S = 0.05

    def __init__(self, on_loop=None):
        """`on_loop(seconds)` is told of every loop run inside a call."""
        self._inside: list[float] | None = None  # loop times of the running call
        self._on_loop = on_loop
        self.samples: list[tuple[float, float]] = []  # (perf_counter at its end, seconds) per loop
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _loop(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.LOOP):
            acc += _unit(i * 1e-4)
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        return t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._inside is not None:  # an alarm delivered after the call ended is dropped
            seconds = self._loop()
            self._inside.append(seconds)
            if self._on_loop is not None:
                self._on_loop(seconds)

    @contextlib.contextmanager
    def timing(self):
        """Time the body of the with-statement; the Timing is filled in on exit."""
        result = Timing()
        before = self._loop()
        self._inside = inside = []
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
            self._inside = None
            result.seconds = elapsed - sum(inside)
            loops = [before, *inside, self._loop()]
            result.ref_seconds = result.seconds * self.REF_S / statistics.mean(loops)

