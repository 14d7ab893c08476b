"""Host-speed calibration: timed regions normalised to a reference host.

The machines this benchmark runs on share their cores with other tenants,
and their speed swings by up to 2x within seconds.  Raw wall time of one
simulation run therefore varies by tens of percent from run to run, far
more than most changes a commit makes to the simulator.  This module measures the
host's speed *during* the timed region and rescales the region's time to
a fixed reference speed.

While a region is open, a ``SIGALRM`` timer interrupts the process every
:data:`INTERVAL_S` and runs :func:`spin`, a fixed pure-Python loop that
uses nothing from the simulator, so the simulator's speed cannot move
it.  A chunk's duration tracks how fast the interpreter runs at that
moment.  One more chunk runs just before and just after the region.  The
host's speed over the region is the mean of the chunks' speeds,
``REFERENCE_CHUNK_S / chunk``, and the region's **normalised time** is::

    (wall - time spent in chunks inside the region) * speed

that is, the seconds the region would have taken on a host that runs one
chunk in :data:`REFERENCE_CHUNK_S`.  The chunks cost about 6% of a run,
and their time is subtracted from the wall time.

On a 2-vCPU x86-64 VM, 50 runs of mp3d-typhoon had an interquartile
range of 8.6% of their median in raw wall time and 1.8% in normalised
time (the mean of chunk *durations* gave 3.2%, their median 4.3%).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: Iterations of :func:`spin` per calibration chunk (~0.3 ms).
CHUNK_ITERATIONS = 3000

#: Seconds one chunk takes on the reference host: measured on a 2-vCPU
#: x86-64 VM in a quiet moment.  Any fixed value works, because only
#: ratios between runs matter.
REFERENCE_CHUNK_S = 300e-6

#: Seconds between calibration chunks inside an open region.
INTERVAL_S = 0.005


def spin(iterations: int = CHUNK_ITERATIONS) -> int:
    """The calibration workload: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(iterations):
        total += i * i % 7
        table[i & 255] = total
    return total


class Region:
    """The measurements of one timed region (see :func:`timed_region`)."""

    def __init__(self):
        #: Durations of every calibration chunk, bracketing ones included.
        self.chunks: list[float] = []
        #: Seconds spent in chunks that ran *inside* the timed interval.
        self.chunk_time_inside = 0.0
        self.wall = 0.0

    @property
    def run_s(self) -> float:
        """Wall seconds of the region's own work (chunk time removed)."""
        return self.wall - self.chunk_time_inside

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (1.0 = reference).

        The chunks sample the speed evenly in time, so their mean speed
        is the speed averaged over the region (the mean *duration* would
        weight the slow moments twice).
        """
        return statistics.fmean(REFERENCE_CHUNK_S / c for c in self.chunks)

    @property
    def normalized_s(self) -> float:
        """Seconds the region's work would take on the reference host."""
        return self.run_s * self.speed


def _chunk() -> float:
    # The sampling profiler's signal is held off until the chunk ends, so
    # its handler cannot run inside the chunk and make the host look slow.
    signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGPROF,))
    try:
        start = time.perf_counter()
        spin()
        return time.perf_counter() - start
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGPROF,))


@contextmanager
def timed_region(on_chunk=None):
    """Time the body of a ``with`` block and calibrate the host meanwhile.

    ``on_chunk(seconds)`` is called after every chunk that interrupts the
    body, so a tracer can leave the chunk's time out of the layer it
    interrupted.  Yields a :class:`Region`, filled in when the block ends.
    """
    region = Region()

    def handler(_signum, _frame):
        duration = _chunk()
        region.chunks.append(duration)
        region.chunk_time_inside += duration
        if on_chunk is not None:
            on_chunk(duration)

    region.chunks.append(_chunk())
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield region
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        region.wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    region.chunks.append(_chunk())
