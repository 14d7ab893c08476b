"""A timing-free guard on per-block state: traced memory per run.

Resident-set size is noisy and host-dependent; the peak of the memory
Python allocates while a fixed-seed run runs is not.  Each case runs one
small application once to warm every lazy cache (handler rows, imports,
interned keys), then traces allocations with ``tracemalloc`` while a
fresh machine runs it again; machine construction and application setup
are not traced.  What a run allocates is mostly the state the coherence
layer materializes per block it touches (directory entries, their
sharer maps and request queues) and per line it caches, so a change that
fattens one of those fails here on any host.  A peak may not grow more
than 5% over the peak pinned here; a change that shrinks it may lower
the pin.

The pins were taken when DirNNB's full map became an int bit vector,
both directory encodings queued waiting requests in a plain list, and
``CacheLine`` became slotted (docs/performance.md, "Per-block state");
at the commit before, the same runs peaked at 638,508 (em3d) and 323,892
(ocean) bytes.  The em3d pin fell from 266,980 when ``pending`` became
the shared empty tuple until a request queues and EM3D's worker stopped
holding its warm-up address set (its phase addresses are machine words).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.apps.base import AppContext
from repro.harness.runner import build_machine
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

#: (system, app) -> pinned tracemalloc peak, in bytes, of one 4-node
#: small run.
PINNED_PEAK_BYTES = {
    ("dirnnb", "em3d"): 236_236,
    ("typhoon:stache", "ocean"): 249_380,
}

SLACK = 1.05


def traced_peak(system: str, app_name: str) -> int:
    """Peak bytes traced while a fresh 4-node machine runs ``app_name``
    (small dataset, seed 42) on ``system``; setup is not traced."""
    machine, protocol = build_machine(system, MachineConfig(nodes=4, seed=42))
    app = workload(app_name, "small").build()
    app.setup(machine, protocol)
    gc.collect()
    tracemalloc.start()
    try:
        machine.run_workers(
            lambda node_id: app.worker(AppContext(machine, node_id)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("system,app_name", sorted(PINNED_PEAK_BYTES))
def test_traced_peak_stays_within_budget(system, app_name, monkeypatch):
    # A conformance monitor would record history for every event.
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    traced_peak(system, app_name)  # warm-up
    peak = traced_peak(system, app_name)
    pinned = PINNED_PEAK_BYTES[(system, app_name)]
    assert peak <= pinned * SLACK, (
        f"{system} {app_name}/small peaked at {peak:,} traced bytes, more "
        f"than {SLACK - 1:.0%} over the pinned {pinned:,}: per-block or "
        "per-line state grew (see docs/performance.md)")
