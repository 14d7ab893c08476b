"""The CPU access path's cost table, per Tempest backend.

One checked load or store costs, by backend:

* Typhoon — the bare cache hit, private or shared (access control is in
  hardware);
* Blizzard — a shared reference pays the inserted poll, the inserted
  check and the hit; a private reference the bare hit;
* decoupled — a shared reference pays the inserted check and the hit
  (the handler CPU watches the network, so no poll).

Every case runs a single reference on a one-node machine and checks the
cycles it took against that backend's formula, together with the
``node0.cpu.*`` counters it moved.  The three hits run both through
``access_inline`` and through the ``access`` generator, forced there by
an engine event queued inside the hit window.
"""

from __future__ import annotations

import pytest

from repro.backends import compose
from repro.memory.tags import Tag
from repro.sim.config import BlizzardCosts, DecoupledCosts, MachineConfig
from repro.sim.process import Process

BACKENDS = ["typhoon", "blizzard", "decoupled"]
PAGE = 4096
#: A private-segment page (below SHARED_BASE).
PRIVATE = 0x4000
#: Page modes for the hand-mapped pages of the fault cases.
MODE_PAGED = 7
MODE_FAULTING = 9
#: Extra cycles the test page-fault handler returns.
PAGE_FAULT_EXTRA = 7
FAULT_INSTRUCTIONS = 10

COUNTERS = ("refs", "access_cycles", "tlb_misses", "local_misses",
            "block_faults", "page_faults", "fills_killed")


def build(backend):
    """A one-node machine with one warm shared page and one warm private
    page, distinct nonzero check and poll costs, and one unmapped page.

    Returns ``(machine, node, shared_base, spare_base)``.
    """
    config = MachineConfig(
        nodes=1, seed=3,
        blizzard=BlizzardCosts(poll_cycles=3, check_read_cycles=5,
                               check_write_cycles=7),
        decoupled=DecoupledCosts(check_read_cycles=5, check_write_cycles=7),
    )
    machine, protocol = compose(f"{backend}:stache", config)
    region = machine.heap.allocate(PAGE, label="warm")
    protocol.setup_region(region)
    spare = machine.heap.allocate(2 * PAGE, label="spare")
    node = machine.nodes[0]

    def warm(_node_id):
        for offset in range(0, PAGE, 64):
            yield from node.access(region.base + offset, False)
            yield from node.access(PRIVATE + offset, False)

    machine.run_workers(warm)
    return machine, node, region.base, spare.base


def formula(backend, machine):
    """``(hit, poll, check_read, check_write)`` for ``backend``."""
    hit = machine.config.cache_hit_cycles
    if backend == "typhoon":
        return hit, 0, 0, 0
    costs = getattr(machine.config, backend)
    poll = costs.poll_cycles if backend == "blizzard" else 0
    return hit, poll, costs.check_read_cycles, costs.check_write_cycles


def counters(machine):
    stats = machine.stats
    return {name: stats.get(f"node0.cpu.{name}") for name in COUNTERS}


def moved(before, after):
    return {name: after[name] - before[name] for name in COUNTERS
            if after[name] != before[name]}


def drive(machine, node, addr, is_write, value=None):
    """Run one ``access`` generator to completion.

    Returns ``(result, cycles it took)``.
    """
    engine = machine.engine
    done = {}

    def reference():
        start = engine.now
        done["result"] = yield from node.access(addr, is_write, value)
        done["cycles"] = engine.now - start

    Process(engine, reference())
    engine.run()
    return done["result"], done["cycles"]


def reference(machine, node, addr, is_write, value, path):
    """One reference through ``path`` ("inline" or "access")."""
    engine = machine.engine
    if path == "inline":
        start = engine.now
        hit = node.access_inline(addr, is_write, value)
        assert hit is not None
        return hit[0], engine.now - start
    # A no-op event one cycle out sits inside every hit window, so the
    # inline path must refuse the reference and change nothing.
    engine.schedule(1, lambda: None)
    before = (engine.now, counters(machine), node.cpu_tlb.hits,
              node.cache.hits)
    assert node.access_inline(addr, is_write, value) is None
    assert (engine.now, counters(machine), node.cpu_tlb.hits,
            node.cache.hits) == before
    return drive(machine, node, addr, is_write, value)


@pytest.mark.parametrize("path", ["inline", "access"])
@pytest.mark.parametrize("backend", BACKENDS)
class TestHits:
    def check(self, backend, path, shared, is_write, value, cost):
        machine, node, base, _spare = build(backend)
        addr = (base if shared else PRIVATE) + 64
        node.image.write(addr, "old")
        before = counters(machine)
        tlb_hits, cache_hits = node.cpu_tlb.hits, node.cache.hits
        result, cycles = reference(machine, node, addr, is_write, value,
                                   path)
        expected = cost(*formula(backend, machine))
        assert cycles == expected
        assert moved(before, counters(machine)) == {
            "refs": 1, "access_cycles": expected}
        assert node.cpu_tlb.hits == tlb_hits + 1
        assert node.cache.hits == cache_hits + 1
        if is_write:
            assert result is None
            assert node.image.read(addr) == value
        else:
            assert result == "old"
        return node, addr

    def test_private_hit(self, backend, path):
        self.check(backend, path, False, False, None,
                   lambda hit, poll, cr, cw: hit)

    def test_shared_read_hit(self, backend, path):
        self.check(backend, path, True, False, None,
                   lambda hit, poll, cr, cw: poll + cr + hit)

    def test_shared_write_hit(self, backend, path):
        node, addr = self.check(backend, path, True, True, "new",
                                lambda hit, poll, cr, cw: poll + cw + hit)
        assert node.layout.block_of(addr) in node.written_blocks


@pytest.mark.parametrize("backend", BACKENDS)
class TestMisses:
    def test_tlb_miss(self, backend):
        machine, node, base, _spare = build(backend)
        addr = base + 64
        node.cpu_tlb.evict(machine.layout.page_number(addr))
        assert node.access_inline(addr, False) is None
        before = counters(machine)
        _value, cycles = drive(machine, node, addr, False)
        hit, poll, check_read, _cw = formula(backend, machine)
        expected = poll + machine.config.tlb.miss_cycles + check_read + hit
        assert cycles == expected
        assert moved(before, counters(machine)) == {
            "refs": 1, "access_cycles": expected, "tlb_misses": 1}

    @pytest.mark.parametrize("shared", [True, False])
    def test_local_miss(self, backend, shared):
        machine, node, base, _spare = build(backend)
        addr = base + 64 if shared else PRIVATE + 64
        node.invalidate_cpu_copy(machine.layout.block_of(addr))
        assert node.access_inline(addr, False) is None
        before = counters(machine)
        _value, cycles = drive(machine, node, addr, False)
        _hit, poll, check_read, _cw = formula(backend, machine)
        expected = machine.config.local_miss_cycles
        if shared:
            expected += poll + check_read
        assert cycles == expected
        assert moved(before, counters(machine)) == {
            "refs": 1, "access_cycles": expected, "local_misses": 1}

    def test_page_fault(self, backend):
        machine, node, _base, spare = build(backend)
        calls = []

        def page_fault(tempest, addr, is_write):
            calls.append(addr)
            tempest.map_page(machine.layout.page_of(addr), mode=MODE_PAGED,
                             home=0, initial_tag=Tag.READ_WRITE)
            return PAGE_FAULT_EXTRA

        node.set_page_fault_handler(page_fault)
        addr = spare + 8
        assert node.access_inline(addr, False) is None
        before = counters(machine)
        _value, cycles = drive(machine, node, addr, False)
        _hit, poll, check_read, _cw = formula(backend, machine)
        expected = (poll + machine.config.tlb.miss_cycles
                    + machine.costs.page_fault + PAGE_FAULT_EXTRA
                    + check_read + machine.config.local_miss_cycles)
        assert calls == [addr]
        assert cycles == expected
        assert moved(before, counters(machine)) == {
            "refs": 1, "access_cycles": expected, "tlb_misses": 1,
            "page_faults": 1, "local_misses": 1}

    def test_block_fault(self, backend):
        machine, node, _base, spare = build(backend)
        page = spare + PAGE
        node.tempest.map_page(page, mode=MODE_FAULTING, home=0,
                              initial_tag=Tag.INVALID)
        handled = []

        def fault_handler(tempest, fault):
            handled.append(machine.engine.now)
            tempest.set_rw(fault.addr)
            tempest.resume()

        node.tempest.register_handler("test_fault", fault_handler,
                                      instructions=FAULT_INSTRUCTIONS)
        node.np.set_fault_handler(MODE_FAULTING, False, "test_fault")
        addr = page + 8
        start = machine.engine.now
        before = counters(machine)
        _value, cycles = drive(machine, node, addr, False)
        _hit, poll, check_read, _cw = formula(backend, machine)
        # Before the fault: poll, TLB miss and check.  The handler runs
        # on the NP, handler CPU or (Blizzard) this CPU; once it resumes
        # the thread, the retry pays the check and a local fill.
        [handled_at] = handled
        assert handled_at - start >= (poll + machine.config.tlb.miss_cycles
                                      + check_read + FAULT_INSTRUCTIONS)
        if backend == "blizzard":
            assert handled_at - start == (
                poll + machine.config.tlb.miss_cycles + check_read
                + machine.config.blizzard.software_dispatch_cycles
                + FAULT_INSTRUCTIONS
                * machine.config.blizzard.cycles_per_instruction)
        assert cycles == (handled_at - start + check_read
                          + machine.config.local_miss_cycles)
        assert moved(before, counters(machine)) == {
            "refs": 1, "access_cycles": cycles, "tlb_misses": 1,
            "block_faults": 1, "local_misses": 1}
