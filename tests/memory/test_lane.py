"""Edge cases of the batched access lane (``repro.memory.lane``).

Each test builds two identical warmed machines and holds the lane on one
against the scalar inline path on the other: the lane must commit
exactly the prefix the scalar path would, with identical effects.
"""

from __future__ import annotations

import pytest

from repro.apps.base import AppContext
from repro.backends import compose
from repro.network.message import Message
from repro.sim.config import MachineConfig

PAGE = 4096
#: A private-segment page (below SHARED_BASE): hits cost the bare hit.
PRIVATE = 0x4000

SYSTEMS = ["typhoon:stache", "blizzard:stache", "decoupled:stache"]


@pytest.fixture(autouse=True)
def _monitor_off(monkeypatch):
    """These tests count lane commits, and the lanes deopt by design
    while the conformance monitor watches, so the ambient
    ``REPRO_CONFORMANCE`` switch is pinned off (tests that want the
    monitor enable it explicitly)."""
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)


def warmed(system="typhoon:stache"):
    """A one-node machine with one shared and one private page resident.

    Every word of the shared page holds its own offset.  Returns
    ``(machine, node, shared_base)``.
    """
    machine, protocol = compose(system, MachineConfig(nodes=1, seed=3))
    region = machine.heap.allocate(PAGE, label="lane")
    protocol.setup_region(region)
    node = machine.nodes[0]
    for offset in range(0, PAGE, 8):
        node.image.write(region.base + offset, offset)

    def warm(_node_id):
        for offset in range(0, PAGE, 8):
            yield from node.access(region.base + offset, False)
            yield from node.access(PRIVATE + offset, False)

    machine.run_workers(warm)
    return machine, node, region.base


def effects(machine, node):
    """Everything a committed reference may change."""
    return (machine.engine.now, dict(machine.stats.as_dict()),
            node.cpu_tlb.hits, node.cache.hits, sorted(node.image.items()),
            sorted(node.written_blocks))


def scalar_prefix(node, ops, start):
    """Drive the scalar inline path over ``ops[start:]`` until it stops."""
    out = []
    index = start
    while index < len(ops):
        addr, is_write, value = ops[index]
        hit = node.access_inline(addr, is_write, value)
        if hit is None:
            break
        out.append(hit[0])
        index += 1
    return index, out


def assert_plan_matches_scalar(system, make_ops, prepare=lambda m: None):
    """Run the plan lane on one machine and the scalar path on a twin."""
    runs = []
    for lane in (True, False):
        machine, node, base = warmed(system)
        prepare(machine)
        ops = make_ops(base)
        if lane:
            out = []
            index = node.run_plan_prefix(ops, 0, out)
        else:
            index, out = scalar_prefix(node, ops, 0)
        runs.append((index, out, effects(machine, node)))
    assert runs[0] == runs[1]
    return runs[0]


def reads(addrs):
    return [(addr, False, None) for addr in addrs]


# ----------------------------------------------------------------------
# The engine window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", SYSTEMS)
def test_queued_event_bounds_the_prefix(system):
    machine, node, base = warmed(system)
    engine = machine.engine
    now = engine.now
    cost = node._hit_cycles  # private references pay the bare hit
    engine.schedule_at(now + 6 * cost, lambda: None)
    addrs = [PRIVATE + 8 * k for k in range(12)]
    out = []
    index = node.run_read_prefix(addrs, 0, out)
    # Elements completing at now+1..now+5 (times cost) commit; the sixth
    # would complete exactly when the queued event fires.
    assert index == 5
    assert engine.now == now + 5 * cost
    assert out == [0] * 5


@pytest.mark.parametrize("system", SYSTEMS)
def test_queued_event_prefix_matches_scalar(system):
    def prepare(machine):
        engine = machine.engine
        engine.schedule_at(engine.now + 23, lambda: None)

    index, out, _ = assert_plan_matches_scalar(
        system, lambda base: reads(base + 8 * k for k in range(40)),
        prepare)
    assert 0 < index < 40


@pytest.mark.parametrize("bound", [7, 7.5])
@pytest.mark.parametrize("system", SYSTEMS)
def test_run_until_stops_where_scalar_does(system, bound):
    results = []
    for lane in (True, False):
        machine, node, base = warmed(system)
        engine = machine.engine
        start_time = engine.now
        ops = [(base + 8 * k, k % 3 == 1, -k) for k in range(24)]
        seen = {}

        def probe(ops=ops, node=node, lane=lane, seen=seen):
            if lane:
                out = []
                seen["index"] = node.run_plan_prefix(ops, 0, out)
                seen["out"] = out
            else:
                seen["index"], seen["out"] = scalar_prefix(node, ops, 0)

        engine.schedule(1, probe)
        engine.run(until=start_time + 1 + bound)
        results.append((seen["index"], seen["out"], effects(machine, node)))
    assert results[0] == results[1]
    assert 0 < results[0][0] < 24


@pytest.mark.parametrize("system", SYSTEMS)
def test_float_clock_accounting_matches_scalar(system):
    """After ``run(until=<float>)`` the clock is a float; the lane must
    still charge the exact sum of the per-element costs, as scalar
    commits do.  A run starting just below 2**14 crosses the power of
    two, where ``end - start`` of the float clock is no longer exact."""
    def prepare(machine):
        assert machine.engine.now < 16383.9
        machine.engine.run(until=16383.9)

    index, _, _ = assert_plan_matches_scalar(
        system,
        lambda base: [(base + 8 * k, k % 2 == 0, k) for k in range(10)]
        + reads(PRIVATE + 8 * k for k in range(10)),
        prepare)
    assert index == 20


# ----------------------------------------------------------------------
# Rejection is free
# ----------------------------------------------------------------------
def _event_in_first_window(machine, node, base):
    machine.engine.schedule_at(machine.engine.now + 1, lambda: None)


def _zero_delay_work(machine, node, base):
    machine.engine.schedule(0, lambda: None)


def _cold_first_element(machine, node, base):
    node.cache.invalidate(base)


def _fault_plan(machine, node, base):
    machine.fault_plan = object()


def _conformance(machine, node, base):
    machine.conformance = object()


@pytest.mark.parametrize("reject", [
    _event_in_first_window, _zero_delay_work, _cold_first_element,
    _fault_plan, _conformance,
])
@pytest.mark.parametrize("system", SYSTEMS)
def test_rejected_call_changes_nothing(system, reject):
    machine, node, base = warmed(system)
    reject(machine, node, base)
    before = effects(machine, node)
    ops = [(base + 8 * k, k % 2 == 1, k) for k in range(8)]
    out = ["sentinel"]
    assert node.run_plan_prefix(ops, 0, out) == 0
    assert node.run_read_prefix([addr for addr, _w, _v in ops], 0, out) == 0
    assert out == ["sentinel"]
    assert effects(machine, node) == before


def test_blizzard_inbox_deopts_the_lane():
    machine, node, base = warmed("blizzard:stache")
    node._inbox.append(Message(src=0, dst=0, handler="noop"))
    before = effects(machine, node)
    addrs = [base + 8 * k for k in range(8)]
    assert node.run_read_prefix(addrs, 0, []) == 0
    assert node.run_plan_prefix(reads(addrs), 0, []) == 0
    assert effects(machine, node) == before
    node._inbox.clear()
    assert node.run_read_prefix(addrs, 0, []) == 8


# ----------------------------------------------------------------------
# Per-element costs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["blizzard:stache", "decoupled:stache"])
def test_software_backends_charge_shared_and_private_costs(system):
    machine, node, base = warmed(system)
    costs = node.costs
    hit = node._hit_cycles
    poll = costs.poll_cycles if system.startswith("blizzard") else 0
    shared_read = poll + costs.check_read_cycles + hit
    shared_write = poll + costs.check_write_cycles + hit
    ops = [(PRIVATE, False, None), (base, False, None), (base + 8, True, 5),
           (PRIVATE + 8, True, 6), (base + 64, False, None)]
    engine = machine.engine
    now = engine.now
    cycles = machine.stats.get("node0.cpu.access_cycles")
    out = []
    assert node.run_plan_prefix(ops, 0, out) == len(ops)
    spent = hit + shared_read + shared_write + hit + shared_read
    assert engine.now == now + spent
    assert machine.stats.get("node0.cpu.access_cycles") == cycles + spent
    assert out == [0, 0, None, None, 64]
    # Only the shared write marks its block written.
    assert base in node.written_blocks
    assert PRIVATE not in node.written_blocks


def test_first_write_to_unheld_block_creates_its_words():
    """A block cached EXCLUSIVE whose words no image holds yet: the lane's
    first write creates the word dict, and reads in the same run see it."""
    for lane in (True, False):
        machine, node, base = warmed("typhoon:stache")
        block = base + 96
        node.image._blocks.pop(block)
        assert block not in node.image._blocks
        ops = [(block + 8, True, "x"), (block + 8, False, None),
               (block, False, None), (block + 16, True, "y"),
               (block + 16, False, None)]
        if lane:
            out = []
            index = node.run_plan_prefix(ops, 0, out)
        else:
            index, out = scalar_prefix(node, ops, 0)
        assert index == len(ops)
        assert out == [None, "x", 0, None, "y"]
        assert node.image._blocks[block] == {8: "x", 16: "y"}
        assert block in node.written_blocks


# ----------------------------------------------------------------------
# Every access context runs the node's one lane
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", SYSTEMS)
def test_app_context_binds_the_node_lanes(system):
    machine, _ = compose(system, MachineConfig(nodes=2, seed=7))
    for node in machine.nodes:
        context = AppContext(machine, node.node_id)
        assert context._run_reads == node.run_read_prefix
        assert context._run_plan == node.run_plan_prefix
