"""Host-speed-corrected timing for a shared host.

The benchmark runs on a few cores of a shared machine, whose speed for
one process changes by up to 2x within seconds as other tenants come
and go.  Identical runs a few seconds apart then differ by 1.5x in
wall time, which no number of repeats at one moment averages away.

:class:`HostClock` samples the host's speed while a run goes on: every
:data:`PERIOD_S` of wall time a signal handler times a fixed loop of
interpreter work (:func:`calibrate`, ~0.1 ms on an unloaded 2-vCPU
x86-64 host: 0.5% of the run, the same share whatever the program
does).  :func:`host_seconds` charges each stretch of the run between
two samples at the speed those samples saw, relative to a reference
host on which one :func:`calibrate` takes :data:`REFERENCE_COST_S`,
and leaves the handler's own time out.  The result is the run's
duration on that reference host: a faster program still takes fewer of
these seconds and a slower one more, but a neighbour's burst no longer
shows.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import Dict, List, Sequence

#: Wall seconds between two speed samples.
PERIOD_S = 0.02
#: Samples on each side whose median gives a stretch's speed: a single
#: sample can be hit by an interrupt.
NEIGHBOURS = 2
#: Seconds one :func:`calibrate` takes on the reference host.
REFERENCE_COST_S = 100e-6

#: Small enough to stay in the first-level cache, so the program's own
#: memory traffic does not change what a sample costs.
_VALUES = [float(i) for i in range(64)]


def calibrate(values: Sequence[float] = _VALUES, passes: int = 40) -> float:
    """A fixed amount of interpreter work that allocates no containers."""
    total = 0.0
    for _ in range(passes):
        for value in values:
            total += value * 1.0001 - total * 1e-9
    return total


class HostClock:
    """Times :func:`calibrate` every :data:`PERIOD_S` from a SIGALRM handler."""

    def __init__(self) -> None:
        self.times = array("d")
        self.costs = array("d")
        self.previous = None

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        calibrate()
        self.times.append(start)
        self.costs.append(time.monotonic() - start)

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Dict[str, List[float]]:
        """Stop sampling; the samples' start times and costs so far."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous or signal.SIG_DFL)
        return {"t": list(self.times), "c": list(self.costs)}


def host_seconds(samples: Dict[str, List[float]], start: float,
                 end: float) -> float:
    """Seconds from ``start`` to ``end`` (``time.monotonic``) on the reference host.

    Stretches between samples are the program's time; each is scaled
    by :data:`REFERENCE_COST_S` over the median cost of the samples
    around it.  Handler time inside the interval is left out.
    """
    times, costs = samples["t"], samples["c"]
    if not times:
        return end - start
    total = 0.0
    begin = start
    # Stretch k runs from the end of sample k-1 to the start of sample k.
    for k in range(len(times) + 1):
        stop = times[k] if k < len(times) else end
        lo, hi = max(begin, start), min(stop, end)
        if hi > lo:
            near = costs[max(0, k - NEIGHBOURS - 1):k + NEIGHBOURS]
            total += (hi - lo) * REFERENCE_COST_S / statistics.median(near)
        if k < len(times):
            begin = times[k] + costs[k]
        if begin >= end:
            break
    return total
