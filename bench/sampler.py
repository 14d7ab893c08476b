"""A stdlib sampling profiler that reports host time per layer.

Every :data:`INTERVAL_S` of process CPU time, ``ITIMER_PROF`` delivers
``SIGPROF``; the handler walks out from the interrupted frame to the
innermost frame that is a layer boundary and counts one sample for that
boundary's layer.  The boundaries are exactly the ones the wrapping
tracer times (a ``LayerTracer(wrap=False)`` finds them and records their
code objects), so both tools answer the same question, "which layer's
self time is this?", by different means.  The sampler adds no cost to
the calls it measures, so where its shares differ from the tracer's, the
tracer's wrappers have distorted the run.  Its own overhead is measured
two ways: by an A/B against untraced runs (see ``run.py``), and directly,
as the time spent inside the handler (``handler_s``).

Samples outside every boundary count as ``other``.
"""

from __future__ import annotations

import signal
from collections import Counter
from time import perf_counter

#: CPU seconds between samples.
INTERVAL_S = 0.002

#: Layer for samples outside every boundary.
OTHER = "other"


class LayerSampler:
    """Counts ``SIGPROF`` samples per layer while started."""

    def __init__(self, codes: dict):
        #: Boundary code object -> layer.
        self.codes = codes
        self.samples: Counter = Counter()
        #: Seconds spent inside the handler.
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, _signum, frame) -> None:
        start = perf_counter()
        codes = self.codes
        layer = None
        while layer is None and frame is not None:
            layer = codes.get(frame.f_code)
            frame = frame.f_back
        self.samples[layer or OTHER] += 1
        self.handler_s += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
