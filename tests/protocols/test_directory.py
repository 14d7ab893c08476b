"""Tests for directory entry encodings, especially the LimitLESS-style
software entry's representation transitions (Section 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.directory import (
    BITVECTOR_LIMIT,
    POINTER_SLOTS,
    DirectoryState,
    HardwareDirectoryEntry,
    SoftwareDirectoryEntry,
    nodes_in,
)


class TestDirectoryState:
    def test_transient_states(self):
        assert DirectoryState.PENDING_WRITEBACK.is_transient
        assert DirectoryState.PENDING_INVALIDATE.is_transient
        assert not DirectoryState.HOME.is_transient
        assert not DirectoryState.SHARED.is_transient
        assert not DirectoryState.EXCLUSIVE.is_transient


class TestHardwareEntry:
    def test_initial_state(self):
        entry = HardwareDirectoryEntry()
        assert entry.state is DirectoryState.HOME
        assert entry.owner is None
        assert entry.sharers() == set()
        assert not entry.pending

    def test_bit_vector_round_trips_the_end_nodes_of_32(self):
        entry = HardwareDirectoryEntry()
        entry.add_sharer(0)
        entry.add_sharer(31)
        assert entry.sharer_bits == 1 | 1 << 31
        assert entry.sharers() == {0, 31}
        entry.remove_sharer(0)
        assert entry.sharers() == {31}
        entry.remove_sharer(31)
        assert entry.sharer_bits == 0
        assert entry.sharers() == set()

    def test_sharers_view_lists_nodes_in_ascending_order(self):
        entry = HardwareDirectoryEntry()
        for node in (31, 4, 17, 0):
            entry.add_sharer(node)
        assert list(nodes_in(entry.sharer_bits)) == [0, 4, 17, 31]
        assert "sharers=[0, 4, 17, 31]" in repr(entry)


@given(ops=st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
    max_size=100,
))
@settings(max_examples=60, deadline=None)
def test_property_hardware_entry_tracks_exact_set(ops):
    """The full map holds exactly the sharers added and not removed."""
    entry = HardwareDirectoryEntry()
    reference = set()
    for add, node in ops:
        if add:
            entry.add_sharer(node)
            reference.add(node)
        else:
            entry.remove_sharer(node)
            reference.discard(node)
    assert entry.sharers() == reference
    assert entry.sharer_bits == sum(1 << node for node in reference)


# ----------------------------------------------------------------------
# The DirNNB controller works on the full map's bits directly.
# ----------------------------------------------------------------------
BLOCK = 0x1000_0000


def _dirnnb_home(nodes, monkeypatch):
    """A ``nodes``-node DirNNB machine's home controller for BLOCK, with
    every message it sends captured instead of delivered."""
    from repro.protocols.dirnnb import DirNNBMachine
    from repro.sim.config import MachineConfig

    machine = DirNNBMachine(MachineConfig(nodes=nodes, seed=1))
    machine.heap.allocate(4096)
    home = machine.home_of(BLOCK)
    sent = []
    monkeypatch.setattr(machine.interconnect, "send", sent.append)
    return machine, machine.nodes[home].directory, sent


def _deliver(machine, controller, handler, **payload):
    from repro.network.message import Message, VirtualNetwork

    controller.receive(Message(
        src=payload.get("requester", payload.get("sharer", 0)),
        dst=controller.node.node_id, handler=handler,
        vnet=VirtualNetwork.REQUEST, payload={"addr": BLOCK, **payload},
    ))
    machine.engine.run()


def _request(machine, controller, requester, want_write):
    _deliver(machine, controller, "dir.get", requester=requester,
             want_write=want_write, local=False)


class TestFullMapController:
    def test_invalidations_go_out_in_ascending_node_order(
            self, monkeypatch):
        machine, controller, sent = _dirnnb_home(32, monkeypatch)
        entry = controller.entry(BLOCK)
        for node in (31, 17, 0, 5):  # joined out of order
            entry.add_sharer(node)
        entry.state = DirectoryState.SHARED
        _request(machine, controller, 9, True)
        assert [m.dst for m in sent if m.handler == "dir.inval"] == [
            0, 5, 17, 31]
        assert entry.state is DirectoryState.PENDING_INVALIDATE
        assert entry.acks_outstanding == 4
        for sharer in (31, 0, 17, 5):
            _deliver(machine, controller, "dir.ack", sharer=sharer)
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 9
        assert entry.sharer_bits == 0
        assert sent[-1].handler == "dir.data" and sent[-1].dst == 9

    def test_requester_is_not_invalidated_by_its_own_upgrade(
            self, monkeypatch):
        machine, controller, sent = _dirnnb_home(32, monkeypatch)
        entry = controller.entry(BLOCK)
        entry.add_sharer(0)
        entry.add_sharer(31)
        entry.state = DirectoryState.SHARED
        _request(machine, controller, 31, True)
        assert [m.dst for m in sent if m.handler == "dir.inval"] == [0]

    def test_pending_is_fifo_with_the_request_in_flight_first(
            self, monkeypatch):
        machine, controller, sent = _dirnnb_home(8, monkeypatch)
        entry = controller.entry(BLOCK)
        entry.add_sharer(1)
        entry.add_sharer(2)
        entry.state = DirectoryState.SHARED
        _request(machine, controller, 3, True)
        assert type(entry.pending) is list
        assert entry.pending == [(3, True)]
        _request(machine, controller, 4, False)
        _request(machine, controller, 5, True)
        assert entry.pending == [(3, True), (4, False), (5, True)]
        _deliver(machine, controller, "dir.ack", sharer=1)
        _deliver(machine, controller, "dir.ack", sharer=2)
        # 3 now owns the block; 4's read recalls it and goes in flight
        # ahead of 5, still waiting.
        assert entry.state is DirectoryState.PENDING_WRITEBACK
        assert entry.owner == 3
        assert entry.pending == [(4, False), (5, True)]
        _deliver(machine, controller, "dir.wb_data", owner=3, held=True)
        assert entry.sharers() == {3, 4}
        # 5's write then invalidates both readers, in node order.
        assert entry.pending == [(5, True)]
        assert [m.dst for m in sent if m.handler == "dir.inval"][-2:] == [
            3, 4]


# ----------------------------------------------------------------------
# Both encodings expose one surface to the monitor, the verifiers and
# the explorer.
# ----------------------------------------------------------------------
def _fresh(encoding):
    if encoding == "hardware":
        return HardwareDirectoryEntry()
    return SoftwareDirectoryEntry(nodes=32)


@pytest.mark.parametrize("encoding", ["hardware", "software"])
class TestSharedSurface:
    def test_sharer_api(self, encoding):
        entry = _fresh(encoding)
        for node in (31, 0, 7):
            entry.add_sharer(node)
        assert entry.sharers() == {0, 7, 31}
        view = entry.sharers()
        view.add(12)  # a fresh set: the entry is unchanged
        assert entry.sharers() == {0, 7, 31}
        entry.remove_sharer(7)
        entry.remove_sharer(7)  # absent: a no-op
        assert entry.sharers() == {0, 31}

    def test_pending_is_a_shared_tuple_then_a_fifo_list(self, encoding):
        entry = _fresh(encoding)
        # No list until a request queues: every fresh entry shares one
        # empty tuple, and appending in place fails loudly.
        assert entry.pending == ()
        assert entry.pending is _fresh(encoding).pending
        with pytest.raises(AttributeError):
            entry.pending.append((1, False))
        entry.pending = [*entry.pending, (1, False)]
        assert type(entry.pending) is list
        entry.pending = [*entry.pending, (2, True)]
        entry.pending = [(3, True), *entry.pending]  # the request in flight
        assert entry.pending.pop(0) == (3, True)
        assert entry.pending.pop(0) == (1, False)
        assert entry.pending == [(2, True)]


class TestSoftwareEntryPointers:
    def test_starts_in_pointer_representation(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        assert entry.representation == "pointers"
        assert entry.sharers() == set()

    def test_six_pointers_fit(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(POINTER_SLOTS):
            entry.add_sharer(node)
        assert entry.representation == "pointers"
        assert entry.sharer_count == 6

    def test_duplicate_add_does_not_consume_a_slot(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for _ in range(10):
            entry.add_sharer(3)
        assert entry.representation == "pointers"
        assert entry.sharer_count == 1

    def test_seventh_sharer_overflows_to_bitvector(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(POINTER_SLOTS + 1):
            entry.add_sharer(node)
        assert entry.representation == "bitvector"
        assert entry.sharers() == set(range(7))

    def test_remove_sharer_in_each_representation(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        entry.add_sharer(1)
        entry.remove_sharer(1)
        assert entry.sharers() == set()
        for node in range(8):
            entry.add_sharer(node)
        entry.remove_sharer(3)
        assert 3 not in entry.sharers()
        assert entry.sharer_count == 7

    def test_clear_falls_back_to_pointers(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(10):
            entry.add_sharer(node)
        entry.clear_sharers()
        assert entry.representation == "pointers"
        assert entry.sharers() == set()


class TestSoftwareEntryLargeMachines:
    def test_overflow_beyond_32_nodes_uses_auxiliary_structure(self):
        entry = SoftwareDirectoryEntry(nodes=64)
        for node in range(POINTER_SLOTS + 1):
            entry.add_sharer(node)
        assert entry.representation == "auxiliary"
        assert entry.sharers() == set(range(7))

    def test_auxiliary_supports_high_node_ids(self):
        entry = SoftwareDirectoryEntry(nodes=64)
        for node in range(50, 60):
            entry.add_sharer(node)
        assert entry.sharers() == set(range(50, 60))

    def test_bitvector_limit_is_32(self):
        assert BITVECTOR_LIMIT == 32

    def test_out_of_range_sharer_rejected(self):
        entry = SoftwareDirectoryEntry(nodes=8)
        with pytest.raises(ValueError):
            entry.add_sharer(8)


@given(
    nodes=st.sampled_from([4, 32, 64]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
        max_size=100,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_software_entry_tracks_exact_set(nodes, ops):
    """Whatever the representation, the sharer set is exactly right."""
    entry = SoftwareDirectoryEntry(nodes=nodes)
    reference = set()
    for add, node in ops:
        node = node % nodes
        if add:
            entry.add_sharer(node)
            reference.add(node)
        else:
            entry.remove_sharer(node)
            reference.discard(node)
    assert entry.sharers() == reference
    assert entry.sharer_count == len(reference)


# ----------------------------------------------------------------------
# Watched entries: the conformance monitor switches an entry to its
# class's observing subclass; unwatched entries keep a plain slot.
# ----------------------------------------------------------------------
ENCODINGS = {"hardware": HardwareDirectoryEntry,
             "software": SoftwareDirectoryEntry}


def _machine_and_entry(encoding):
    """A 2-node machine of ``encoding``'s protocol, a shared block, and
    ``entry(block)``, which materializes the block's home entry as the
    protocol does."""
    from tests.protocols.conftest import (
        make_dirnnb_machine,
        make_stache_machine,
    )

    if encoding == "hardware":
        machine, region = make_dirnnb_machine(nodes=2)
        home = machine.home_of(region.base)
        return machine, region.base, machine.nodes[home].directory.entry
    machine, protocol, region = make_stache_machine(nodes=2)
    tempest = machine.nodes[machine.heap.home_of(region.base)].tempest
    return (machine, region.base,
            lambda block: protocol._dir_entry(tempest, block))


def _seen_states(monitor, block):
    return [event.what for event in monitor.recorder.events(block)
            if event.kind == "state"]


#: Assigned in order; legality does not matter to a non-strict monitor.
WALK = (DirectoryState.SHARED, DirectoryState.PENDING_INVALIDATE,
        DirectoryState.HOME, DirectoryState.EXCLUSIVE)
WALK_SEEN = ["home -> shared", "shared -> pending-invalidate",
             "pending-invalidate -> home", "home -> exclusive"]


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
class TestWatchedEntries:
    def test_unwatched_entry_is_the_plain_class(self, encoding,
                                                monkeypatch):
        monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
        machine, block, entry_of = _machine_and_entry(encoding)
        assert machine.conformance is None
        entry = entry_of(block)
        assert type(entry) is ENCODINGS[encoding]
        entry.state = DirectoryState.SHARED
        assert entry.state is DirectoryState.SHARED

    def test_monitor_attached_before_the_entry_sees_every_assignment(
            self, encoding, monkeypatch):
        monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
        machine, block, entry_of = _machine_and_entry(encoding)
        monitor = machine.enable_conformance(strict=False)
        entry = entry_of(block)
        assert type(entry) is ENCODINGS[encoding].observed
        assert isinstance(entry, ENCODINGS[encoding])
        for state in WALK:
            entry.state = state
            assert entry.state is state
        assert _seen_states(monitor, block) == WALK_SEEN

    def test_monitor_attached_later_watches_existing_entries(
            self, encoding, monkeypatch):
        monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
        machine, block, entry_of = _machine_and_entry(encoding)
        entry = entry_of(block)
        entry.state = DirectoryState.SHARED  # before the monitor: unseen
        entry.state = DirectoryState.HOME
        monitor = machine.enable_conformance(strict=False)
        assert type(entry) is ENCODINGS[encoding].observed
        assert entry_of(block) is entry
        for state in WALK:
            entry.state = state
        assert _seen_states(monitor, block) == WALK_SEEN

    def test_strict_monitor_that_raises_leaves_state_unchanged(
            self, encoding, monkeypatch):
        from repro.protocols.verify import CoherenceViolation

        monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
        machine, block, entry_of = _machine_and_entry(encoding)
        monitor = machine.enable_conformance(strict=True)
        entry = entry_of(block)
        legal = monitor.spec.directory_transitions
        illegal = next(new for new in DirectoryState
                       if (DirectoryState.HOME, new) not in legal)
        with pytest.raises(CoherenceViolation):
            entry.state = illegal
        assert entry.state is DirectoryState.HOME
