"""Online conformance checking end to end.

Two statements proved here:

1. **The protocols conform.**  The same lossy-network hypothesis programs
   the fault-resilience suite runs, re-run with ``enable_conformance()``:
   every directory/tag transition and every grant/ack/writeback pairing
   is checked online, and none may violate the declarative tables on
   any Tempest backend — Typhoon, decoupled, or Blizzard (nor on
   DirNNB).
2. **The monitor catches non-conformance.**  Mutation tests corrupt a
   directory entry / tag store directly and assert the monitor fires
   immediately, with a non-empty flight-recorder history in the report.

Plus the passivity guarantee the goldens rely on: a monitored run is
cycle- and statistics-identical to an unmonitored one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.tags import Tag
from repro.protocols.conformance import (
    DIRECTORY_TRANSITIONS,
    TAG_TRANSITIONS,
    SPECS,
    spec_for,
)
from repro.protocols.directory import DirectoryState
from repro.protocols.verify import CoherenceViolation
from repro.blizzard.system import BlizzardMachine
from repro.decoupled.system import DecoupledMachine
from tests.integration.test_fault_resilience import (
    LOSSY,
    NODES,
    OPS,
    PAGES,
    make_software_stache_machine,
    run_under_faults,
)
from tests.protocols.conftest import (
    make_dirnnb_machine,
    make_stache_machine,
    run_script,
)


# ----------------------------------------------------------------------
# Property tests: lossy networks, transition-level oracle
# ----------------------------------------------------------------------
@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_property_typhoon_conforms_under_lossy_network(ops, seed):
    machine, _protocol, region = make_stache_machine(
        nodes=NODES, seed=seed, shared_bytes=PAGES * 4096)
    monitor = machine.enable_conformance()
    run_under_faults(machine, region, ops)
    assert monitor.violations == []


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_property_blizzard_conforms_under_lossy_network(ops, seed):
    machine, _protocol, region = make_software_stache_machine(
        BlizzardMachine, seed=seed)
    monitor = machine.enable_conformance()
    run_under_faults(machine, region, ops)
    assert monitor.violations == []


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_property_decoupled_conforms_under_lossy_network(ops, seed):
    machine, _protocol, region = make_software_stache_machine(
        DecoupledMachine, seed=seed)
    monitor = machine.enable_conformance()
    run_under_faults(machine, region, ops)
    assert monitor.violations == []


def test_contended_stache_run_performs_checks():
    machine, _protocol, region = make_stache_machine(nodes=4, seed=2)
    monitor = machine.enable_conformance()
    script = {
        node: [("w", region.base + block * 32, (node, block))
               for block in range(8)] + [("b",)]
              + [("r", region.base + node * 32)]
        for node in range(4)
    }
    run_script(machine, script)
    assert monitor.violations == []
    assert monitor.checks > 0
    assert len(monitor.recorder.events()) > 0


def test_dirnnb_conforms_under_lossy_network():
    machine, region = make_dirnnb_machine(nodes=NODES, seed=2)
    monitor = machine.enable_conformance()
    machine.install_fault_plan(LOSSY)
    script = {
        node: [("w", region.base + block * 32, (node, block))
               for block in range(8)]
              + [("r", region.base + ((node + 1) % NODES) * 32)]
        for node in range(NODES)
    }
    run_script(machine, script)
    assert monitor.violations == []
    assert monitor.checks > 0


def test_late_grant_race_is_poisoned_and_refetched():
    """Hypothesis-found coherence bug, pinned deterministically.

    Node 2's read-only grant is dropped; the home then runs an
    invalidation round (for node 0's write) that node 2 acks while its
    tag is still Busy; the reliable transport finally retransmits the
    grant.  Without requester-side poisoning the late grant resurrects
    a readable copy the home no longer tracks, and node 2's next read
    returns a stale value.
    """
    ops = [(0, False, 0, 0, 0)] * 10 + [
        (0, False, 1, 0, 0),
        (0, True, 0, 0, 0),
        (1, True, 0, 0, 0),
        (2, False, 0, 0, 0),
        (1, False, 2, 0, 0),
        (2, False, 0, 0, 0),
    ]
    machine, _protocol, region = make_software_stache_machine(
        BlizzardMachine, seed=0)
    monitor = machine.enable_conformance()
    run_under_faults(machine, region, ops)  # linearizability oracle inside
    assert monitor.violations == []
    assert machine.stats.get("stache.grants_poisoned") >= 1
    assert machine.stats.get("stache.poisoned_grants_refetched") >= 1


# ----------------------------------------------------------------------
# Mutation tests: the monitor must fire, with history attached
# ----------------------------------------------------------------------
def corrupted_stache_entry(machine, region):
    """Run a remote write so a directory entry exists, then return it.

    The writer must not be the home node: a home-local write hits the
    page's initial ReadWrite tags and never materializes an entry.
    """
    home = machine.heap.home_of(region.base)
    writer = (home + 1) % machine.num_nodes
    run_script(machine, {writer: [("w", region.base, 1)]})
    page = machine.nodes[home].page_table.lookup(region.base)
    return page.user_word[region.base]


def test_mutated_directory_entry_fires_with_history():
    machine, _protocol, region = make_stache_machine(nodes=4, seed=1)
    monitor = machine.enable_conformance()
    entry = corrupted_stache_entry(machine, region)
    assert entry.state is DirectoryState.EXCLUSIVE
    with pytest.raises(CoherenceViolation) as excinfo:
        # EXCLUSIVE -> PENDING_INVALIDATE is not a legal single step for
        # any Stache-family protocol (invalidation rounds start from
        # SHARED; an exclusive owner is recalled via PENDING_WRITEBACK).
        entry.state = DirectoryState.PENDING_INVALIDATE
    report = str(excinfo.value)
    assert "illegal directory transition" in report
    assert "flight recorder" in report
    assert "last 0 events" not in report  # history must be non-empty
    # Strict mode refuses the mutation: the entry is left unchanged.
    assert entry.state is DirectoryState.EXCLUSIVE
    assert monitor.violations != []


def test_mutated_tag_fires_with_history():
    machine, _protocol, region = make_stache_machine(nodes=4, seed=1)
    monitor = machine.enable_conformance()
    run_script(machine, {1: [("r", region.base)]})
    node = machine.nodes[1]
    assert node.tags.read_tag(region.base) in (Tag.READ_ONLY, Tag.READ_WRITE)
    with pytest.raises(CoherenceViolation, match="illegal tag transition"):
        # Owning a readable copy and re-entering BUSY (a second fetch for
        # a block already held writable) is illegal from READ_WRITE.
        node.tags.set_rw(region.base)
        node.tags.set_tag(region.base, Tag.BUSY)
    assert monitor.violations != []


def test_mutated_dirnnb_entry_fires():
    machine, region = make_dirnnb_machine(nodes=4, seed=1)
    monitor = machine.enable_conformance()
    run_script(machine, {1: [("w", region.base, 7)]})
    entry = machine.nodes[machine.home_of(region.base)].directory.entry(
        region.base)
    assert entry.state is DirectoryState.EXCLUSIVE
    with pytest.raises(CoherenceViolation):
        entry.state = DirectoryState.PENDING_INVALIDATE
    assert monitor.violations != []


def test_nonstrict_monitor_records_without_raising():
    machine, _protocol, region = make_stache_machine(nodes=4, seed=1)
    monitor = machine.enable_conformance(strict=False)
    entry = corrupted_stache_entry(machine, region)
    entry.state = DirectoryState.PENDING_INVALIDATE  # illegal, not raised
    assert len(monitor.violations) == 1
    assert "illegal directory transition" in monitor.violations[0]


# ----------------------------------------------------------------------
# Passivity and plumbing
# ----------------------------------------------------------------------
SCRIPT = {
    node: [("w", 0x1000_0000 + block * 32, (node, block))
           for block in range(6)] + [("b",)]
          + [("r", 0x1000_0000 + node * 32)]
    for node in range(4)
}


def test_monitor_is_cycle_and_stats_passive():
    def outcome(conformance):
        machine, _protocol, _region = make_stache_machine(nodes=4, seed=7)
        if conformance:
            machine.enable_conformance()
        run_script(machine, SCRIPT)
        return machine.engine.now, dict(machine.stats.as_dict())

    time_off, stats_off = outcome(False)
    time_on, stats_on = outcome(True)
    assert time_on == time_off
    assert stats_on == stats_off


def test_monitor_records_coverage_edges_only_when_on(monkeypatch):
    """Coverage edges are a monitor product: with the monitor on, every
    fault and delivery lands in ``monitor.edges``; with it off nothing
    is attached that could collect them."""
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)

    def run(monitored):
        machine, _protocol, region = make_stache_machine(nodes=2, seed=1)
        monitor = machine.enable_conformance() if monitored else None
        run_script(machine, {1: [("w", region.base, 7)],
                             0: [("c", 500), ("r", region.base)]})
        return machine, monitor

    machine, monitor = run(True)
    assert {
        ("home", "fault.write", "Invalid"),           # node 1 misses
        ("home", "stache.get_rw", "ReadWrite"),       # home grants
        ("exclusive", "stache.data", "Busy"),         # data lands
        ("exclusive", "fault.read", "Invalid"),       # home reads back
        ("pending-writeback", "stache.writeback", "ReadWrite"),
    } <= monitor.edges
    machine, _ = run(False)
    assert machine.conformance is None
    assert machine.interconnect.observers == []
    assert machine.fault_observers == []
    assert all(node.tags.observer is None for node in machine.nodes)


def test_enable_conformance_is_idempotent_and_needs_a_spec():
    from repro.sim.config import MachineConfig
    from repro.sim.engine import SimulationError
    from repro.typhoon.system import TyphoonMachine

    machine, _protocol, _region = make_stache_machine(nodes=2, seed=1)
    monitor = machine.enable_conformance()
    assert machine.enable_conformance() is monitor
    bare = TyphoonMachine(MachineConfig(nodes=2, seed=1))
    with pytest.raises(SimulationError, match="no conformance spec"):
        bare.enable_conformance()


def test_spec_registry_shapes():
    assert set(SPECS) == {"stache", "stache-migratory", "ivy", "dirnnb",
                          "em3d-update"}
    # Transient states may never be entered from HOME directly, and BUSY
    # may never silently become INVALID.
    assert (DirectoryState.HOME,
            DirectoryState.PENDING_INVALIDATE) not in DIRECTORY_TRANSITIONS
    assert (Tag.BUSY, Tag.INVALID) not in TAG_TRANSITIONS
    machine, _protocol, _region = make_stache_machine(nodes=2, seed=1)
    assert spec_for(machine) is SPECS["stache"]


def test_transport_failure_report_includes_flight_recorder():
    from repro.network.faults import FaultSpec
    from repro.sim.engine import SimulationError

    machine, _protocol, region = make_stache_machine(nodes=4, seed=1)
    machine.enable_conformance()
    machine.install_fault_plan(FaultSpec(
        drop_pct=1.0, fault_attempt_limit=100, max_attempts=3,
        retry_timeout=10))
    with pytest.raises(SimulationError, match="undelivered after 3"):
        run_script(machine, {0: [("w", region.base + 4096, 1)]})
    failure = machine.transport.last_failure
    assert failure is not None
    assert failure["attempts"] == 3
    assert failure["xid"] not in machine.transport.pending
    assert failure["xid"] not in machine.transport._timers
