"""Edges of the shared dispatch loop's inline advance, on both backends.

Typhoon's NP and the decoupled handler CPU run one dispatch loop
(:mod:`repro.tempest.dispatch`).  When a handler finishes with work
queued, the loop runs the next handler without an engine round trip
only if no queued event and no ``run(until=...)`` bound falls inside
the next charge window.  These tests pin that condition from both
sides, plus the loop's behaviour on long back-to-back drains, on
handlers registered after the first dispatch, and on faults it cannot
dispatch.
"""

from __future__ import annotations

import pytest

from repro.decoupled.system import DecoupledMachine
from repro.memory.address import SHARED_BASE
from repro.memory.tags import AccessFault, Tag
from repro.network.message import Message
from repro.sim.config import MachineConfig
from repro.tempest.dispatch import DispatchError
from repro.typhoon.np import DispatchError as NpDispatchError
from repro.typhoon.system import TyphoonMachine

BACKENDS = ["typhoon", "decoupled"]

#: Instruction count of the test handler.
INSTRUCTIONS = 10


def build(backend: str):
    """A 2-node machine, node 1's dispatcher, its handler log, and the
    full cost of one dispatch of the test handler."""
    config = MachineConfig(nodes=2, seed=1)
    if backend == "typhoon":
        machine = TyphoonMachine(config)
        overhead = 0
        cpi = config.typhoon.cycles_per_instruction
    else:
        machine = DecoupledMachine(config)
        costs = config.decoupled
        overhead = costs.poll_notice_cycles + costs.dispatch_cycles
        cpi = costs.cycles_per_instruction
    log = []
    machine.tempests[1].register_handler(
        "h", lambda tempest, message: log.append(("h", tempest.engine.now)),
        INSTRUCTIONS)
    return machine, machine.nodes[1].np, log, overhead + INSTRUCTIONS * cpi


def message(handler: str = "h") -> Message:
    return Message(src=0, dst=1, handler=handler)


@pytest.mark.parametrize("backend", BACKENDS)
def test_queued_event_inside_the_charge_window_blocks_inline_advance(
        backend):
    machine, dispatcher, log, cost = build(backend)
    engine = machine.engine
    dispatcher.enqueue_message(message())
    dispatcher.enqueue_message(message())
    # The second handler's window is (cost, 2 * cost]; an event inside
    # it must fire before that handler runs.
    engine.schedule(cost + 3, lambda: log.append(("probe", engine.now)))
    engine.run()
    assert log == [("h", cost), ("probe", cost + 3), ("h", 2 * cost)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_event_after_the_window_lets_the_loop_run_inline(backend):
    machine, dispatcher, log, cost = build(backend)
    engine = machine.engine
    for _ in range(3):
        dispatcher.enqueue_message(message())
    engine.schedule(3 * cost + 1, lambda: log.append(("probe", engine.now)))
    engine.run()
    assert log == [("h", cost), ("h", 2 * cost), ("h", 3 * cost),
                   ("probe", 3 * cost + 1)]
    # One event ran all three handlers; one more was the probe.
    assert engine.events_fired == 2


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("slack", [0, 0.5])
def test_run_until_bound_is_respected(backend, slack):
    """An int and a float ``until``: the handler whose window ends on or
    before the bound runs inline, the next one waits for the next run."""
    machine, dispatcher, log, cost = build(backend)
    engine = machine.engine
    for _ in range(3):
        dispatcher.enqueue_message(message())
    until = 2 * cost + slack
    engine.run(until=until)
    assert log == [("h", cost), ("h", 2 * cost)]
    assert engine.now == until
    engine.run()
    assert log[-1] == ("h", 3 * cost)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_until_just_short_of_the_window_stops_before_it(backend):
    machine, dispatcher, log, cost = build(backend)
    for _ in range(2):
        dispatcher.enqueue_message(message())
    machine.engine.run(until=2 * cost - 1)
    assert log == [("h", cost)]
    machine.engine.run()
    assert log == [("h", cost), ("h", 2 * cost)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_long_back_to_back_drain_costs_the_serial_sum(backend):
    machine, dispatcher, log, cost = build(backend)
    count = 20_000
    for _ in range(count):
        dispatcher.enqueue_message(message())
    machine.engine.run()
    assert len(log) == count
    assert machine.engine.now == count * cost
    unit = "np" if backend == "typhoon" else "hp"
    assert machine.stats.get(f"node1.{unit}.handler_cycles") == count * cost
    assert not dispatcher.busy


@pytest.mark.parametrize("backend", BACKENDS)
def test_handler_registered_after_the_first_dispatch_runs(backend):
    machine, dispatcher, log, cost = build(backend)
    dispatcher.enqueue_message(message())
    machine.engine.run()
    machine.tempests[1].register_handler(
        "late", lambda tempest, message: log.append(("late", 0)), 1)
    dispatcher.enqueue_message(message("late"))
    machine.engine.run()
    assert log[-1] == ("late", 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unmapped_page_fault_raises_the_dispatch_error(backend):
    machine, dispatcher, _log, _cost = build(backend)
    addr = SHARED_BASE + 64 * machine.layout.page_size
    fault = AccessFault(addr=addr, block_addr=machine.layout.block_of(addr),
                        is_write=False, tag=Tag.INVALID, node=1)
    with pytest.raises(DispatchError, match="unmapped page"):
        dispatcher.enqueue_fault(fault)
    assert NpDispatchError is DispatchError


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_with_no_registered_handler_raises_the_dispatch_error(
        backend):
    machine, dispatcher, _log, _cost = build(backend)
    addr = SHARED_BASE + 64 * machine.layout.page_size
    machine.tempests[1].map_page(addr, mode=9, home=1,
                                 initial_tag=Tag.INVALID)
    fault = AccessFault(addr=addr, block_addr=machine.layout.block_of(addr),
                        is_write=True, tag=Tag.INVALID, node=1)
    with pytest.raises(DispatchError,
                       match="no fault handler for mode=9 is_write=True"):
        dispatcher.enqueue_fault(fault)
