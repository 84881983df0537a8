"""Host speed probe, to report timings at a fixed reference speed.

On a shared host the speed of one core drifts by a quarter or more over
tens of seconds, and it moves every timing of a single-threaded pure-Python
program alike.  A probe sample times a fixed piece of pure-Python work that
belongs to the benchmark, so no change to the package can move it.  A
timing divided by ``slowdown`` (the probe's time over REFERENCE_S) is in
seconds on a host where the probe takes REFERENCE_S.
"""

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001
INTERVAL_S = 0.1
# probe samples taken this long before and after an operation also count
# towards its slowdown, so even a short operation has a few of them
PAD_S = 0.25


def _probe_work():
    acc = 0
    table = {}
    for i in range(4000):
        v = (i * 7919) % 1009
        acc += v * v - i
        table[v] = acc & 1023
    return acc + len(table)


def probe():
    """Seconds the probe work takes now."""
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


class Sampler:
    """Takes a probe sample every INTERVAL_S of wall time from SIGALRM while
    entered, and counts the time spent sampling so callers can subtract it."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, probe()))
        self.spent += perf_counter() - start

    def slowdown(self, start, end):
        """Slowdown over [start - PAD_S, end + PAD_S].

        The samples are evenly spaced in time and the work done in each
        interval is inversely proportional to its slowdown, so the
        interval's slowdown is the harmonic mean of its samples'.
        """
        near = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.harmonic_mean(near) / REFERENCE_S
