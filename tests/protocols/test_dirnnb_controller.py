"""Direct unit tests of the DirNNB directory controller state machine.

The end-to-end tests exercise the controller through full machines; these
drive it message by message and inspect the entry states, occupancy
charging, and pending-queue behaviour in isolation.
"""

import pytest

from repro.network.message import Message, VirtualNetwork
from repro.protocols.directory import DirectoryState
from repro.protocols.dirnnb import DirNNBMachine
from repro.sim.config import MachineConfig

BLOCK = 0x1000_0000


@pytest.fixture
def machine():
    machine = DirNNBMachine(MachineConfig(nodes=4, seed=1))
    machine.heap.allocate(4096)  # makes BLOCK a managed address
    return machine


def get(machine, requester, want_write, addr=BLOCK, local=False):
    machine.nodes[0].directory.receive(Message(
        src=requester, dst=0, handler="dir.get",
        vnet=VirtualNetwork.REQUEST,
        payload={"addr": addr, "requester": requester,
                 "want_write": want_write, "local": local},
    ))


def drain(machine):
    machine.engine.run()


class TestEntryLifecycle:
    def test_entry_materializes_on_demand(self, machine):
        controller = machine.nodes[0].directory
        assert BLOCK not in controller.entries()
        entry = controller.entry(BLOCK)
        assert entry.state is DirectoryState.HOME
        assert BLOCK in controller.entries()

    def test_first_read_grants_exclusive_clean(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, requester=1, want_write=False)
        drain(machine)
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 1

    def test_second_read_produces_shared_pair(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, False)
        drain(machine)
        machine.nodes[2]._miss_grant = _fake_future(machine)
        get(machine, 2, False)
        drain(machine)
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.state is DirectoryState.SHARED
        assert entry.sharers() == {1, 2}


class TestTransients:
    def test_requests_queue_behind_transient(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, True)
        drain(machine)
        # Owner is 1.  Two more writers race in; both queue/serialize.
        machine.nodes[2]._miss_grant = _fake_future(machine)
        machine.nodes[3]._miss_grant = _fake_future(machine)
        get(machine, 2, True)
        get(machine, 3, True)
        drain(machine)
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 3  # served in arrival order: 2 then 3
        assert not entry.pending

    def test_surplus_ack_is_structural_error(self, machine):
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError, match="surplus ack"):
            machine.nodes[0].directory.receive(Message(
                src=1, dst=0, handler="dir.ack",
                vnet=VirtualNetwork.RESPONSE,
                payload={"addr": BLOCK, "sharer": 1},
            ))

    def test_unexpected_wb_data_is_structural_error(self, machine):
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            machine.nodes[0].directory.receive(Message(
                src=1, dst=0, handler="dir.wb_data",
                vnet=VirtualNetwork.RESPONSE,
                payload={"addr": BLOCK, "owner": 1, "held": True},
            ))

    def test_unknown_message_rejected(self, machine):
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError, match="unknown directory"):
            machine.nodes[0].directory.receive(Message(
                src=1, dst=0, handler="dir.bogus",
                vnet=VirtualNetwork.REQUEST,
                payload={},
            ))


class TestOccupancyCharging:
    def test_remote_get_charges_table2_costs(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        before = machine.stats.get("node0.dir.occupancy_cycles")
        get(machine, 1, False)
        drain(machine)
        charged = machine.stats.get("node0.dir.occupancy_cycles") - before
        # 16 base + 5 for the data message + 11 block sent.
        assert charged == 32

    def test_local_messagefree_get_is_free(self, machine):
        machine.nodes[0]._miss_grant = _fake_future(machine)
        before = machine.stats.get("node0.dir.occupancy_cycles")
        get(machine, 0, False, local=True)
        drain(machine)
        assert machine.stats.get("node0.dir.occupancy_cycles") == before

    def test_local_get_needing_messages_is_charged(self, machine):
        # Node 1 takes the block; then the home's own (local) write must
        # recall it — messages flow, so the op is charged.
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, True)
        drain(machine)
        before = machine.stats.get("node0.dir.occupancy_cycles")
        machine.nodes[0]._miss_grant = _fake_future(machine)
        get(machine, 0, True, local=True)
        drain(machine)
        assert machine.stats.get("node0.dir.occupancy_cycles") > before

    def test_replays_counted(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, True)
        drain(machine)
        # Node 2's write starts a writeback round trip; node 3's request
        # lands mid-flight (entry transient) so it queues on the entry
        # and is replayed when the transaction completes.
        machine.nodes[2]._miss_grant = _fake_future(machine)
        machine.nodes[3]._miss_grant = _fake_future(machine)
        get(machine, 2, True)
        machine.engine.schedule(5, get, machine, 3, True)
        drain(machine)
        assert machine.stats.get("node0.dir.replays") >= 1
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.owner == 3


class TestReplacementHints:
    def test_dirty_hint_returns_block_home(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, True)
        drain(machine)
        machine.nodes[0].directory.receive(Message(
            src=1, dst=0, handler="dir.repl", vnet=VirtualNetwork.RESPONSE,
            payload={"addr": BLOCK, "sharer": 1, "dirty": True},
        ))
        drain(machine)
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.state is DirectoryState.HOME
        assert entry.owner is None

    def test_clean_hint_prunes_sharer(self, machine):
        for node in (1, 2):
            machine.nodes[node]._miss_grant = _fake_future(machine)
            get(machine, node, False)
            drain(machine)
        machine.nodes[0].directory.receive(Message(
            src=1, dst=0, handler="dir.repl", vnet=VirtualNetwork.RESPONSE,
            payload={"addr": BLOCK, "sharer": 1, "dirty": False},
        ))
        drain(machine)
        entry = machine.nodes[0].directory.entry(BLOCK)
        assert entry.sharers() == {2}

    def test_last_clean_hint_restores_home_state(self, machine):
        machine.nodes[1]._miss_grant = _fake_future(machine)
        get(machine, 1, False)
        drain(machine)
        machine.nodes[2]._miss_grant = _fake_future(machine)
        get(machine, 2, False)
        drain(machine)
        for node in (1, 2):
            machine.nodes[0].directory.receive(Message(
                src=node, dst=0, handler="dir.repl",
                vnet=VirtualNetwork.RESPONSE,
                payload={"addr": BLOCK, "sharer": node, "dirty": False},
            ))
        drain(machine)
        assert (machine.nodes[0].directory.entry(BLOCK).state
                is DirectoryState.HOME)


def _fake_future(machine):
    from repro.sim.process import Future

    return Future(machine.engine)
