"""Edge cases of the batched access lane (``repro.memory.lane``).

Each test builds two identical warmed machines and holds a lane — the
read lane, the write lane or the plan lane — on one against the scalar
inline path on the other: the lane must commit exactly the prefix the
scalar path would, with identical effects.
"""

from __future__ import annotations

import pytest

from repro.apps.base import AppContext, _no_run
from repro.backends import compose
from repro.memory.cache import LineState
from repro.network.message import Message
from repro.sim.config import MachineConfig
from repro.sim.process import SYNC

PAGE = 4096
#: A private-segment page (below SHARED_BASE): hits cost the bare hit.
PRIVATE = 0x4000

#: A cache block: four 8-byte words.
BLOCK = 32

SYSTEMS = ["typhoon:stache", "blizzard:stache", "decoupled:stache"]

#: The three batched lanes, each fed a run of its own kind.
LANES = ["reads", "writes", "plan"]


def lane_cases(first):
    """``(system, lane)`` for every system and lane.  The lane a test
    was first written for keeps the bare system as its id."""
    return [pytest.param(system, lane,
                         id=system if lane == first else f"{system}-{lane}")
            for system in SYSTEMS for lane in LANES]


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


def shaped(lane, ops):
    """``ops`` as the run ``lane`` takes: all reads, all writes (a read
    op writes its index), or the plan unchanged."""
    if lane == "reads":
        return [(addr, False, None) for addr, _write, _value in ops]
    if lane == "writes":
        return [(addr, True, k if value is None else value)
                for k, (addr, _write, value) in enumerate(ops)]
    return ops


def lane_prefix(node, lane, ops, start, out):
    """Run ``lane`` over the plan ops ``ops`` (already ``shaped``)."""
    if lane == "reads":
        return node.run_read_prefix([addr for addr, _w, _v in ops], start,
                                    out)
    if lane == "writes":
        return node.run_write_prefix([(addr, value) for addr, _w, value
                                      in ops], start, out)
    return node.run_plan_prefix(ops, start, out)


def assert_lane_matches_scalar(system, make_ops, prepare=lambda m: None,
                               lane="plan"):
    """Run ``lane`` on one machine and the scalar path on a twin."""
    runs = []
    for batched in (True, False):
        machine, node, base = warmed(system)
        prepare(machine)
        ops = shaped(lane, make_ops(base))
        if batched:
            out = []
            index = lane_prefix(node, lane, ops, 0, out)
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
@pytest.mark.parametrize("system,lane", lane_cases("reads"))
def test_queued_event_bounds_the_prefix(system, lane):
    machine, node, base = warmed(system)
    engine = machine.engine
    now = engine.now
    cost = node._hit_cycles  # private references pay the bare hit
    engine.schedule_at(now + 6 * cost, lambda: None)
    ops = shaped(lane, reads(PRIVATE + 8 * k for k in range(12)))
    out = []
    index = lane_prefix(node, lane, ops, 0, out)
    # Elements completing at now+1..now+5 (times cost) commit; the sixth
    # would complete exactly when the queued event fires.
    assert index == 5
    assert engine.now == now + 5 * cost
    assert out == [None if lane == "writes" else 0] * 5


@pytest.mark.parametrize("system,lane", lane_cases("plan"))
def test_queued_event_prefix_matches_scalar(system, lane):
    def prepare(machine):
        engine = machine.engine
        engine.schedule_at(engine.now + 23, lambda: None)

    index, out, _ = assert_lane_matches_scalar(
        system, lambda base: reads(base + 8 * k for k in range(40)),
        prepare, lane)
    assert 0 < index < 40


@pytest.mark.parametrize("lane,room,committed", [
    ("reads", 5, 3), ("writes", 9, 4), ("plan", 5, 3)])
def test_a_cheaper_page_fits_where_a_dearer_one_would_not(lane, room,
                                                          committed):
    """Blizzard's shared references cost more than private ones (reads
    2 cycles, writes 5, against 1).  The window has room for one shared
    reference, then for private ones after it: they commit, as on the
    scalar path, though another shared one would not have fit."""
    def prepare(machine):
        engine = machine.engine
        engine.schedule_at(engine.now + room, lambda: None)

    index, _, _ = assert_lane_matches_scalar(
        "blizzard:stache",
        lambda base: reads([PRIVATE, base, PRIVATE + 8, PRIVATE + 16,
                            base + 16, PRIVATE + 24]),
        prepare, lane)
    assert index == committed


@pytest.mark.parametrize("bound", [7, 7.5])
@pytest.mark.parametrize("system,lane", lane_cases("plan"))
def test_run_until_stops_where_scalar_does(system, lane, bound):
    results = []
    for batched in (True, False):
        machine, node, base = warmed(system)
        engine = machine.engine
        start_time = engine.now
        ops = shaped(lane, [(base + 8 * k, k % 3 == 1, -k)
                            for k in range(24)])
        seen = {}

        def probe(ops=ops, node=node, batched=batched, seen=seen):
            if batched:
                out = []
                seen["index"] = lane_prefix(node, lane, ops, 0, out)
                seen["out"] = out
            else:
                seen["index"], seen["out"] = scalar_prefix(node, ops, 0)

        engine.schedule(1, probe)
        engine.run(until=start_time + 1 + bound)
        results.append((seen["index"], seen["out"], effects(machine, node)))
    assert results[0] == results[1]
    assert 0 < results[0][0] < 24


@pytest.mark.parametrize("system,lane", lane_cases("plan"))
def test_float_clock_accounting_matches_scalar(system, lane):
    """After ``run(until=<float>)`` the clock is a float; the lane must
    still charge the exact sum of the per-element costs, as scalar
    commits do.  A run starting just below 2**14 crosses the power of
    two, where ``end - start`` of the float clock is no longer exact."""
    def prepare(machine):
        assert machine.engine.now < 16383.9
        machine.engine.run(until=16383.9)

    index, _, _ = assert_lane_matches_scalar(
        system,
        lambda base: [(base + 8 * k, k % 2 == 0, k) for k in range(10)]
        + reads(PRIVATE + 8 * k for k in range(10)),
        prepare, lane)
    assert index == 20


@pytest.mark.parametrize("lane", LANES)
def test_a_float_clock_steps_like_scalar_commits(lane):
    """On a float clock, four one-cycle steps can end above ``now + 4``;
    the lane must stop where stepping, as scalar commits do, stops.  The
    clock is set near zero, where the two round differently."""
    clock = 0.123456789
    stepped = clock + 1 + 1 + 1 + 1
    assert stepped > clock + 4

    def prepare(machine):
        machine.engine.now = clock
        machine.engine.schedule_at(stepped, lambda: None)

    index, _, _ = assert_lane_matches_scalar(
        "typhoon:stache",
        lambda base: reads(PRIVATE + 8 * k for k in range(8)), prepare, lane)
    assert index == 3


# ----------------------------------------------------------------------
# The hit test reads the live TLB, page table and cache
# ----------------------------------------------------------------------
# Each mutation below changes one node after its warm run and returns
# ``refuses(addr, is_write)``: whether a hit is now refused there.

#: The block in the middle of a block-level run (words 8..11).
K = 2


def _invalidate_block_k(node, base):
    node.cache.invalidate(base + K * BLOCK)
    return lambda addr, is_write: addr & -BLOCK == base + K * BLOCK


def _downgrade_block_k(node, base):
    """A SHARED line still serves reads; only writes stop."""
    node.cache.downgrade(base + K * BLOCK)
    return lambda addr, is_write: (is_write
                                   and addr & -BLOCK == base + K * BLOCK)


def _flush_the_cache(node, base):
    """Flush, then refill the blocks before block k."""
    node.cache.flush()
    for block in range(K):
        node.cache.insert(base + block * BLOCK, LineState.EXCLUSIVE)
    return lambda addr, is_write: addr >= base + K * BLOCK


def _replace_block_k(node, base):
    """Fill block k's set with other blocks until one evicts it."""
    conflict = node.cache.config.num_sets * BLOCK
    other = base + K * BLOCK
    while node.cache.contains(base + K * BLOCK):
        other += conflict
        node.cache.insert(other, LineState.EXCLUSIVE)
    return lambda addr, is_write: addr & -BLOCK == base + K * BLOCK


def _evict_the_shared_page_from_the_tlb(node, base):
    assert node.cpu_tlb.evict(base // PAGE)
    return lambda addr, is_write: addr >= base


def _push_the_shared_page_out_of_the_tlb(node, base):
    """FIFO replacement: the shared page was installed first."""
    page = base // PAGE
    while base // PAGE in node.cpu_tlb:
        page += 1
        node.cpu_tlb.access(page)
    return lambda addr, is_write: addr >= base


def _flush_the_tlb(node, base):
    """Flush, then refill the private page."""
    node.cpu_tlb.flush()
    node.cpu_tlb.access(PRIVATE // PAGE)
    return lambda addr, is_write: addr >= base


def _unmap_the_shared_page(node, base):
    """The TLB still holds the page; only the page table refuses it."""
    node.page_table.unmap_page(base)
    return lambda addr, is_write: addr >= base


def _block_run(base):
    """Four blocks of the shared page, word by word, reads and writes
    alternating (a read first in every block)."""
    return [(base + 8 * k, k % 2 == 1, k) for k in range(16)]


def _page_run(base):
    """Eight words of the private page, then eight of the shared one."""
    return ([(PRIVATE + 8 * k, k % 2 == 1, k) for k in range(8)]
            + [(base + 8 * k, k % 2 == 1, k) for k in range(8)])


@pytest.mark.parametrize("mutate,make_ops", [
    pytest.param(_invalidate_block_k, _block_run, id="cache-invalidate"),
    pytest.param(_downgrade_block_k, _block_run, id="cache-downgrade"),
    pytest.param(_flush_the_cache, _block_run, id="cache-flush"),
    pytest.param(_replace_block_k, _block_run, id="cache-replacement"),
    pytest.param(_evict_the_shared_page_from_the_tlb, _page_run,
                 id="tlb-evict"),
    pytest.param(_push_the_shared_page_out_of_the_tlb, _page_run,
                 id="tlb-replacement"),
    pytest.param(_flush_the_tlb, _page_run, id="tlb-flush"),
    pytest.param(_unmap_the_shared_page, _page_run, id="page-unmap"),
])
@pytest.mark.parametrize("system,lane", lane_cases(None))
def test_a_lane_stops_where_the_live_state_stops_a_hit(system, lane, mutate,
                                                       make_ops):
    """Each mutation of the TLB, page table or cache made after the warm
    run must stop every lane at the first reference it refuses, exactly
    where ``access_inline`` stops, with identical effects."""
    mutated = []

    def prepare(machine):
        base = machine.heap.regions[0].base
        mutated.append((base, mutate(machine.nodes[0], base)))

    index, _, _ = assert_lane_matches_scalar(system, make_ops, prepare,
                                             lane)
    base, refuses = mutated[0]
    ops = shaped(lane, make_ops(base))
    stops = [k for k, (addr, is_write, _value) in enumerate(ops)
             if refuses(addr, is_write)]
    assert index == (stops[0] if stops else len(ops)) > 0


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
    for lane in LANES:
        assert lane_prefix(node, lane, shaped(lane, ops), 0, out) == 0
    assert out == ["sentinel"]
    assert effects(machine, node) == before


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_write_to_a_shared_line_stops_the_write_lanes(system):
    """A SHARED line reads as a hit but a write to it is an upgrade
    miss: the write and plan lanes refuse it, as the scalar path does."""
    machine, node, base = warmed(system)
    node.cache.downgrade(base)
    before = effects(machine, node)
    ops = shaped("writes", reads(base + 8 * k for k in range(8)))
    assert node.access_inline(base, True, 0) is None
    assert node.run_write_prefix([(a, v) for a, _w, v in ops], 0, []) == 0
    assert node.run_plan_prefix(ops, 0, []) == 0
    assert effects(machine, node) == before
    assert node.run_read_prefix([a for a, _w, _v in ops], 0, []) == 8


def test_blizzard_inbox_deopts_the_lane():
    machine, node, base = warmed("blizzard:stache")
    node._inbox.append(Message(src=0, dst=0, handler="noop"))
    before = effects(machine, node)
    runs = {lane: shaped(lane, reads(base + 8 * k for k in range(8)))
            for lane in LANES}
    for lane, ops in runs.items():
        assert lane_prefix(node, lane, ops, 0, []) == 0
    assert effects(machine, node) == before
    node._inbox.clear()
    for lane, ops in runs.items():
        assert lane_prefix(node, lane, ops, 0, []) == 8


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


def test_write_lane_creates_the_words_of_an_unheld_block():
    runs = []
    for lane in (True, False):
        machine, node, base = warmed("typhoon:stache")
        block = base + 96
        node.image._blocks.pop(block)
        ops = [(block + 8, True, "x"), (block, True, "y"),
               (block + 32, True, "z")]
        if lane:
            out = []
            index = node.run_write_prefix([(a, v) for a, _w, v in ops], 0,
                                          out)
        else:
            index, out = scalar_prefix(node, ops, 0)
        assert index == 3 and out == [None] * 3
        assert node.image._blocks[block] == {8: "x", 0: "y"}
        assert block in node.written_blocks
        runs.append(effects(machine, node))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("system", SYSTEMS)
def test_write_lane_marks_shared_blocks_written(system):
    """Only a write to the shared segment marks its block written."""
    bases = []

    def make_ops(base):
        bases.append(base)
        return [(PRIVATE, True, 1), (base, True, 2), (PRIVATE + 64, True, 3),
                (base + 8, True, 4), (base + 64, True, 5),
                (PRIVATE + 72, True, 6)]

    index, _, (*_, written) = assert_lane_matches_scalar(
        system, make_ops, lane="writes")
    assert index == 6
    assert written == [bases[0], bases[0] + 64]


# ----------------------------------------------------------------------
# Lookahead
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["blizzard:stache", "decoupled:stache"])
def test_write_lane_run_ahead_skips_the_scalar_yields(system):
    """A write lane that opens a lookahead run records the delays scalar
    commits inside the same run would: the bare hit for a private page,
    poll, check and hit for a shared one (zeros dropped)."""
    seen = []
    outcomes = []
    for batched in (True, False):
        machine, protocol = compose(system, MachineConfig(nodes=2, seed=5))
        region = machine.heap.allocate(PAGE, home=0, label="lane")
        protocol.setup_region(region)
        engine = machine.engine
        node = machine.nodes[0]
        base = region.base
        pairs = [(PRIVATE, 1), (base, 2), (PRIVATE + 8, 3), (base + 8, 4),
                 (PRIVATE + 64, 5), (base + 64, 6), (PRIVATE + 72, 7)]

        def worker(node_id, batched=batched, engine=engine, node=node,
                   machine=machine, pairs=pairs):
            ctx = AppContext(machine, node_id)
            if node_id == 1:
                # One-cycle charges keep an event in every window.
                for _ in range(200):
                    yield from ctx.compute(overhead=1)
                return
            for addr, _value in pairs:
                yield from ctx.write(addr, 0)
            engine.horizon(0)  # starts the fence bookkeeping
            yield 1
            if batched:
                index = node.run_write_prefix(pairs, 0, [])
            else:
                # The scalar twin opens the run the lane opened.
                engine.run_ahead(0, seen[0][-1])
                index, _ = scalar_prefix(
                    node, [(addr, True, value) for addr, value in pairs], 0)
            seen.append((index, engine.ahead, engine.now,
                         list(engine.skipped), effects(machine, node),
                         engine.edge))
            yield SYNC

        finish = machine.run_workers(worker)
        outcomes.append((finish, engine.events_fired, engine._seq))
    (index, ahead, _now, skipped, _effects, _bound), scalar = seen
    assert seen[0] == scalar
    assert outcomes[0] == outcomes[1]
    assert ahead == 0 and index > 2
    # A shared write skips more than one delay.
    assert len(skipped) > index


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
@pytest.mark.parametrize("system,lane", lane_cases("reads"))
def test_a_cold_first_element_asks_no_horizon(system, lane, cold):
    """A lane whose first element misses commits nothing whatever the
    window, so it returns before asking for the lookahead horizon: the
    fence bookkeeping stays off.  With the element warm, the same call
    asks and opens a lookahead run (once the bookkeeping has started:
    the first query counts everything then queued as nobody's)."""
    machine, protocol = compose(system, MachineConfig(nodes=2, seed=5))
    region = machine.heap.allocate(PAGE, home=0, label="lane")
    protocol.setup_region(region)
    engine = machine.engine
    node = machine.nodes[0]
    base = region.base
    ops = shaped(lane, [(base + 8 * k, k % 2 == 1, k) for k in range(12)])
    queries = []
    horizon = engine.horizon

    def counted(node_id=None):
        if node_id is not None:
            queries.append(node_id)
        return horizon(node_id)

    engine.horizon = counted
    seen = []

    def worker(node_id):
        ctx = AppContext(machine, node_id)
        if node_id == 1:
            # One-cycle charges keep an event in every window.
            for _ in range(200):
                yield from ctx.compute(overhead=1)
            return
        for k in range(0, 12 * 8, 8):
            yield from ctx.write(base + k, 0)
        if cold:
            node.cache.invalidate(base)
        else:
            engine.horizon(0)  # starts the fence bookkeeping
        yield 1
        asked = len(queries)
        index = lane_prefix(node, lane, ops, 0, [])
        seen.append((index, engine.ahead, engine._fences is None,
                     len(queries) - asked))
        yield SYNC

    machine.run_workers(worker)
    (index, ahead, fences_off, asked), = seen
    if cold:
        assert (index, ahead, fences_off, asked) == (0, None, True, 0)
        assert queries == []
    else:
        assert index > 0 and ahead == 0 and not fences_off
        assert asked == 1


# ----------------------------------------------------------------------
# Every access context runs the node's one lane
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", SYSTEMS)
def test_app_context_binds_the_node_lanes(system):
    machine, _ = compose(system, MachineConfig(nodes=2, seed=7))
    for node in machine.nodes:
        context = AppContext(machine, node.node_id)
        assert context._run_reads == node.run_read_prefix
        assert context._run_writes == node.run_write_prefix
        assert context._run_plan == node.run_plan_prefix


@pytest.mark.parametrize("system", ["typhoon:stache", "dirnnb"])
def test_scalar_mode_and_dirnnb_decompose_write_runs(system):
    """With lanes off, and on DirNNB (no lanes), a write run is one
    ``write()`` per pair; the batched lanes are never called."""
    machine, _ = compose(system, MachineConfig(nodes=2, seed=7))
    if system == "dirnnb":
        context = AppContext(machine, 0)
        assert context._run_writes is _no_run
        assert context._run_plan is _no_run
        return
    machine.batch_lanes = False
    context = AppContext(machine, 0)
    assert context._run_writes is _no_run
    assert context.write_run == context._write_run_scalar
    assert context.read_run == context._read_run_scalar
