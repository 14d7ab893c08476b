"""Unit tests for :class:`repro.tempest.dispatch.DispatchRows`.

A row must be a lossless stand-in for the registered handler: the raw
function behind a delivery guard plus that guard's duplicate check, and
a cost equal to the per-dispatch overhead plus the instruction count
times the backend's cycles per instruction.
"""

from __future__ import annotations

import pytest

from repro.backends import compose
from repro.sim.config import MachineConfig
from repro.tempest.dispatch import DispatchRows
from repro.tempest.messaging import HandlerError


def build(system="typhoon:stache"):
    machine, _protocol = compose(system, MachineConfig(nodes=2, seed=7))
    return machine, machine.nodes[0]


def test_costs_fold_cycles_per_instruction():
    machine, node = build()
    cpi = machine.config.typhoon.cycles_per_instruction
    rows = DispatchRows(node.registry, cpi)
    for name in node.registry.names():
        _fn, _seen, cost = rows[name]
        assert cost == node.registry.lookup(name).instructions * cpi


def test_costs_fold_the_dispatch_overhead():
    machine, node = build("decoupled:stache")
    costs = machine.config.decoupled
    overhead = costs.poll_notice_cycles + costs.dispatch_cycles
    rows = node.np._rows
    for name in node.registry.names():
        _fn, _seen, cost = rows[name]
        instructions = node.registry.lookup(name).instructions
        assert cost == overhead + instructions * costs.cycles_per_instruction


def test_guard_peeling_preserves_handler_and_seen():
    machine, node = build()
    rows = DispatchRows(node.registry,
                        machine.config.typhoon.cycles_per_instruction)
    guarded = [name for name in node.registry.names()
               if hasattr(node.registry.lookup(name).fn, "__guard__")]
    assert guarded, "stache registers every protocol handler guarded"
    for name in guarded:
        wrapper = node.registry.lookup(name).fn
        fn, seen, _cost = rows[name]
        assert fn is wrapper.__wrapped__
        assert seen == wrapper.__guard__.seen


def test_rows_resolve_lazily_for_late_registration():
    machine, node = build()
    cpi = machine.config.typhoon.cycles_per_instruction
    rows = DispatchRows(node.registry, cpi)
    assert not rows
    node.registry.register("__test.late", lambda t, m: None, 5)
    _fn, seen, cost = rows["__test.late"]
    assert cost == 5 * cpi
    assert seen is None  # registered unguarded
    with pytest.raises(HandlerError):
        rows["__test.never_registered"]
