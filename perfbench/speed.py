"""Host-speed probes, so that timings read the same on a busy shared host.

The benchmark runs on a few cores of a shared machine whose speed swings by
up to 1.7x for seconds to minutes at a time, with the program unchanged. A
*probe* is a fixed piece of pure-Python work (partitions of 12 into a dict)
that uses nothing from qlr, so no change to qlr can move its time. Probes run
every few milliseconds, outside every op's timing; each op's time is then
scaled by ``PROBE_REF_S`` over the median probe time during or near it. The figures this gives
are seconds at the reference speed: what the op takes when the probe takes
``PROBE_REF_S``, about its time on an unloaded core. A change that makes
qlr do more work still shows in full; a slow spell of the host does not.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

PROBE_REF_S = 250e-6    # the probe's time on an unloaded core (Python 3.11)
PROBE_EVERY_S = 0.005   # seconds between the end of a probe and the next
PROBE_WINDOW = 5        # a short op is scaled by the median of 2 * this + 1 probes


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def probe() -> float:
    """Run the probe once; return its duration in seconds."""
    t0 = perf_counter()
    table = {}
    for p in _partitions(12, 12):
        table[p] = sum(p)
    return perf_counter() - t0


def warm_up() -> None:
    for _ in range(20):
        probe()


def speed(samples) -> float:
    """The host's speed over ``samples`` probe times, as reference / median."""
    return PROBE_REF_S / statistics.median(samples)


class Clock:
    """Op time with the probes taken out of it.

    While the clock runs, a timer interrupts the process every
    ``PROBE_EVERY_S`` and runs one probe, so probes sample the host's speed
    during long ops as well as between short ones. ``now()`` stands still
    while a probe runs, so no probe adds to an op's time. With
    ``probing=False`` no probe runs and every op keeps its measured time.
    """

    def __init__(self, probing: bool = True):
        self.hidden = 0.0
        self.probes = []        # (clock time, probe seconds)
        self.probing = probing
        if probing:
            warm_up()
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def _probe(self, signum, frame):
        if not self.probing:    # ran late, after scaled() stopped the timer
            return
        t0 = perf_counter()
        self.probes.append((t0 - self.hidden, probe()))
        self.hidden += perf_counter() - t0
        # re-armed only now, so a probe never interrupts another
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def now(self) -> float:
        return perf_counter() - self.hidden

    def scaled(self, starts, durations):
        """Stop probing; return each op's seconds at the reference speed,
        from its clock start and measured duration.

        An op is scaled by the median of the probes made during it, or of
        the ``2 * PROBE_WINDOW + 1`` probes nearest its middle if fewer ran
        during it.
        """
        if self.probing:
            # a handler already pending runs after this and must not re-arm
            # the timer, else the next SIGALRM would kill the process
            self.probing = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if not self.probes:
            return list(durations)
        times = [t for t, _ in self.probes]
        width = 2 * PROBE_WINDOW + 1
        out = []
        for start, d in zip(starts, durations):
            lo, hi = bisect_left(times, start), bisect_left(times, start + d)
            if hi - lo < width:
                mid = bisect_left(times, start + d / 2)
                lo = max(0, min(mid - PROBE_WINDOW, len(times) - width))
                hi = lo + width
            out.append(d * speed([p for _, p in self.probes[lo:hi]]))
        return out
