"""Wall-clock timing rescaled to a fixed reference speed.

On a shared 2-vCPU Xeon VM (Python 3.11) the machine's speed switches
between a fast and a slow mode, about 1.8x apart, several times a second,
as other tenants load the same cores.  There, raw wall-clock medians of
whole passes spread 10-25% between runs; rescaled as below they spread
1-6%.

A Stopwatch therefore samples the machine's current speed while it runs: a
SIGALRM every ``period_s`` seconds runs a fixed pure-Python loop of about
0.25 ms and times it, and the loop is also timed just before and just after
the measured block.  The block's wall time, less the time spent in the
handler, is multiplied by the mean sampled speed (REFERENCE_SAMPLE_S / loop
time), which gives seconds at the reference speed: the speed at which the
loop takes exactly REFERENCE_SAMPLE_S.  The samples are even in wall time,
so their mean speed is the block's mean speed.

The rescaling assumes that the program slows with the machine as the loop
does.  ``selfcheck.py`` tests that on each workload: a pass run twice, and
a pass plus cache-bound or compute-bound C-coded work, must change the
rescaled time as they change raw wall time.  Raw wall times are reported
beside the rescaled ones (``pass_wall_s``, ``setup_wall_s``).  README.md
gives the measured limits: C-coded work that the slow mode slows less than
the loop is under-counted when it runs in the slow mode.

Only the standard library is imported, so a fresh interpreter can time its
own imports with it.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_SAMPLE_S = 0.00025


def _float_step(x: float, k: float) -> tuple[float, float]:
    return x * k + math.sqrt(1.0 + x * x), k


def sample() -> float:
    """Wall seconds of the fixed speed-sampling loop.

    The loop is half float arithmetic through a function call and half
    integer, string, dict and list work, because the slow mode slows these
    by different factors.
    """
    step = _float_step
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        acc += step(i * 1e-3, 0.5)[0]
    table = {}
    for i in range(150):
        acc += (i * 2654435761) % 1000003
        table[i & 63] = (i, str(i))
        acc += len([j for j in range(5)])
    return time.perf_counter() - start


class Stopwatch:
    """Times blocks between start() and stop() on the main thread.

    Installs a SIGALRM handler; only one Stopwatch may run at a time.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self._handler_s = 0.0
        self._last = sample()
        self._start = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self._handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [self._last]
        self._handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall seconds, seconds at the reference speed) since start(),
        both without the time spent sampling."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - self._start
        wall = elapsed - self._handler_s
        self._last = sample()
        self.samples.append(self._last)
        speed = math.fsum(REFERENCE_SAMPLE_S / s for s in self.samples) / len(self.samples)
        return wall, wall * speed
