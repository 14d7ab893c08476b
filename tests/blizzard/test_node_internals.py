"""Unit tests for Blizzard node internals: polling, dispatch, spin loops."""

import pytest

from repro.blizzard.system import BlizzardMachine
from repro.network.message import Message, VirtualNetwork
from repro.sim.config import BlizzardCosts, MachineConfig
from repro.sim.engine import SimulationError
from repro.sim.process import Future, Process


@pytest.fixture
def machine():
    return BlizzardMachine(MachineConfig(nodes=2, seed=6))


def send(machine, dst, handler, vnet=VirtualNetwork.REQUEST, **payload):
    machine.interconnect.send(Message(
        src=1 - dst if dst in (0, 1) else 0, dst=dst, handler=handler,
        vnet=vnet, payload=payload,
    ))


class TestDispatcher:
    def test_fault_table_round_trip(self, machine):
        dispatcher = machine.nodes[0].np
        dispatcher.set_fault_handler(3, True, "h")
        assert dispatcher.fault_handler_for(3, True) == "h"
        with pytest.raises(SimulationError):
            dispatcher.fault_handler_for(3, False)

    def test_charge_accumulates_and_clears(self, machine):
        dispatcher = machine.nodes[0].np
        dispatcher.charge(5)
        dispatcher.charge(7)
        assert dispatcher.take_charge() == 12
        assert dispatcher.take_charge() == 0
        with pytest.raises(SimulationError):
            dispatcher.charge(-1)


class TestPolling:
    def test_poll_drains_inbox_and_charges(self, machine):
        node = machine.nodes[0]
        ran = []
        node.tempest.register_handler(
            "h", lambda t, m: ran.append(m.payload["n"]), instructions=10)
        send(machine, 0, "h", n=1)
        send(machine, 0, "h", n=2)
        machine.engine.run()  # delivery only; nothing polls yet
        assert ran == []
        process = Process(machine.engine, node.poll())
        machine.engine.run()
        assert ran == [1, 2]
        # poll(1) + 2 x (dispatch 20 + instructions 10).
        assert machine.engine.now >= 1 + 2 * 30

    def test_response_priority_in_service_order(self, machine):
        node = machine.nodes[0]
        order = []
        node.tempest.register_handler(
            "req", lambda t, m: order.append("req"), instructions=1)
        node.tempest.register_handler(
            "resp", lambda t, m: order.append("resp"), instructions=1)
        send(machine, 0, "req", vnet=VirtualNetwork.REQUEST)
        send(machine, 0, "resp", vnet=VirtualNetwork.RESPONSE)
        machine.engine.run()
        Process(machine.engine, node.poll())
        machine.engine.run()
        assert order == ["resp", "req"]

    def test_empty_poll_costs_only_poll_cycles(self, machine):
        node = machine.nodes[0]
        start = machine.engine.now
        Process(machine.engine, node.poll())
        machine.engine.run()
        assert machine.engine.now - start == node.costs.poll_cycles


class TestSpinUntil:
    def test_spin_wakes_on_future_without_messages(self, machine):
        node = machine.nodes[0]
        future = Future(machine.engine)
        landed = []

        def worker():
            yield from machine.wait(0, future)
            landed.append(machine.engine.now)

        Process(machine.engine, worker())
        machine.engine.schedule(90, future.resolve, None)
        machine.engine.run()
        assert landed == [90]

    def test_spin_services_messages_while_waiting(self, machine):
        node = machine.nodes[0]
        future = Future(machine.engine)
        ran = []
        node.tempest.register_handler(
            "h", lambda t, m: ran.append(machine.engine.now), instructions=5)

        def worker():
            yield from machine.wait(0, future)

        Process(machine.engine, worker())
        machine.engine.schedule(20, send, machine, 0, "h")
        machine.engine.schedule(200, future.resolve, None)
        machine.engine.run()
        assert len(ran) == 1
        assert ran[0] < 200  # handled during the spin, not after

    def test_spin_exits_even_if_resolving_handler_is_last(self, machine):
        node = machine.nodes[0]
        future = Future(machine.engine)
        node.tempest.register_handler(
            "release", lambda t, m: future.resolve(None), instructions=5)
        finished = []

        def worker():
            yield from machine.wait(0, future)
            finished.append(True)

        Process(machine.engine, worker())
        machine.engine.schedule(50, send, machine, 0, "release")
        machine.engine.run()
        assert finished == [True]


class TestCostKnobs:
    def test_custom_costs_flow_through(self):
        machine = BlizzardMachine(MachineConfig(
            nodes=2, seed=6,
            blizzard=BlizzardCosts(poll_cycles=9, check_write_cycles=17),
        ))
        assert machine.nodes[0].costs.poll_cycles == 9
        assert machine.nodes[0].costs.check_write_cycles == 17
