"""Regression: an invalidation racing a CPU fill must not leave a stale line.

Found by the linearizability oracle under the migratory protocol (but the
race is in the base node model): the NP could invalidate a block while
the CPU's 29-cycle DRAM fill was in flight, and the fill then installed a
cache line the protocol believed was gone — a later 1-cycle hit returned
a stale value.  The fix re-checks the tag when the fill completes
("relinquish and retry"); this test replays the discovered schedule on
Typhoon, and a schedule with the same race on the decoupled handler CPU.
"""

from repro.backends import compose
from repro.protocols.history import AccessHistory, check_register_consistency
from repro.protocols.verify import check_stache_coherence
from repro.sim.config import MachineConfig
from tests.protocols.conftest import run_script

PAGE = 4096


def typhoon_schedule(base):
    """Node 0's write request reaches the home while node 2's read fill
    is still on the bus; node 2's retried read then faults and refetches."""
    race_addr = base + PAGE + 32   # homed on node 1
    filler = base                  # node 0 warm-up reads
    return {
        0: [("r", filler)] * 25 + [("w", race_addr, "fresh")],
        2: [("r", race_addr), ("r", filler), ("r", race_addr)],
    }


def decoupled_schedule(base):
    """The handler CPU dispatches too slowly for a remote fill to lose
    the race, so the fill is the home's own: node 2 reads a block it
    homes while node 0's write request, handled on node 2's handler CPU,
    invalidates it."""
    race_addr = base + 2 * PAGE + 32   # homed on node 2
    return {
        0: [("w", race_addr, "fresh")],
        2: [("c", 400), ("r", race_addr), ("r", base), ("r", race_addr)],
    }


def replay(backend, schedule):
    machine, protocol = compose(f"{backend}:migratory",
                                MachineConfig(nodes=4, seed=0))
    region = machine.heap.allocate(4 * PAGE, label="test")
    protocol.setup_region(region)
    machine.history = AccessHistory()

    reads = run_script(machine, schedule(region.base))

    assert machine.stats.get("node2.cpu.fills_killed") >= 1
    # The final read happened after the write completed: it must see it.
    assert reads[2][-1] == "fresh"
    assert check_register_consistency(machine.history) == []
    check_stache_coherence(machine, region)


def test_invalidation_racing_fill_kills_the_fill():
    replay("typhoon", typhoon_schedule)


def test_invalidation_racing_fill_kills_the_fill_on_decoupled():
    replay("decoupled", decoupled_schedule)
