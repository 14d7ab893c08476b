"""End-to-end tests of the DirNNB hardware baseline."""

import pytest

from repro.memory.cache import LineState
from repro.protocols.directory import DirectoryState
from repro.protocols.verify import check_dirnnb_coherence
from repro.sim.config import MachineConfig
from repro.sim.process import Process
from tests.protocols.conftest import make_dirnnb_machine, run_script


def addr_homed_on(machine, region, home, offset=0):
    for page in range(region.base, region.end, machine.layout.page_size):
        if machine.home_of(page) == home:
            return page + offset
    raise AssertionError(f"no page homed on {home}")


def run_access(machine, node, addr, is_write=False, value=None):
    start = machine.engine.now
    process = Process(machine.engine,
                      machine.nodes[node].access(addr, is_write, value))
    machine.engine.run()
    return process.finished.value, machine.engine.now - start


class TestLocalMiss:
    def test_home_local_miss_costs_table2_flat_29(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        _, cycles = run_access(machine, 0, addr)
        # TLB miss + Table 2's flat local miss + the one-cycle integrated
        # directory consultation (a zero-occupancy controller op).
        assert cycles == 25 + 29 + 1

    def test_home_read_then_write_upgrade_is_local(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {0: [("r", addr), ("w", addr, 1)]})
        remote_packets = (machine.stats.get("network.packets")
                          - machine.stats.get("network.local_packets"))
        assert remote_packets == 0
        entry = machine.nodes[0].directory.entries()[
            machine.layout.block_of(addr)]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 0


class TestRemoteMiss:
    def test_remote_read_cost_matches_table2_formula(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        _, cycles = run_access(machine, 1, addr)
        # 25 TLB + 23 issue + 11 net
        # + directory op (16 + 5 per message + 11 block sent)
        # + 11 net + 34 finish.
        assert cycles == 25 + 23 + 11 + (16 + 5 + 11) + 11 + 34

    def test_remote_read_value_and_states(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        machine.shared_image.write(addr, 5)
        reads = run_script(machine, {1: [("r", addr)]})
        assert reads[1] == [5]
        block = machine.layout.block_of(addr)
        # First reader with no other copies gets exclusive-clean (E state).
        assert machine.nodes[1].cache.lookup(block).state is LineState.EXCLUSIVE
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 1
        check_dirnnb_coherence(machine, region)

    def test_second_reader_demotes_exclusive_clean_to_shared(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("r", addr), ("b",)],
            2: [("b",), ("r", addr)],
            0: [("b",)],
            3: [("b",)],
        }
        run_script(machine, script)
        block = machine.layout.block_of(addr)
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.SHARED
        assert entry.sharers() == {1, 2}
        assert machine.nodes[1].cache.lookup(block).state is LineState.SHARED
        check_dirnnb_coherence(machine, region)

    def test_remote_write_takes_exclusive(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("w", addr, 9)]})
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].cache.lookup(block).state is LineState.EXCLUSIVE
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 1
        assert machine.shared_image.read(addr) == 9
        check_dirnnb_coherence(machine, region)


class TestCoherenceActions:
    def test_write_invalidates_remote_sharers(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("r", addr), ("b",)],
            2: [("r", addr), ("b",)],
            3: [("b",), ("w", addr, 1)],
            0: [("b",)],
        }
        run_script(machine, script)
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].cache.lookup(block) is None
        assert machine.nodes[2].cache.lookup(block) is None
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 3
        check_dirnnb_coherence(machine, region)

    def test_read_of_remote_exclusive_forces_writeback(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("w", addr, 4), ("b",)],
            2: [("b",), ("r", addr)],
            0: [("b",)],
            3: [("b",)],
        }
        reads = run_script(machine, script)
        assert reads[2] == [4]
        block = machine.layout.block_of(addr)
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.SHARED
        assert entry.sharers() == {1, 2}
        assert machine.nodes[1].cache.lookup(block).state is LineState.SHARED
        check_dirnnb_coherence(machine, region)

    def test_home_cached_copy_is_invalidated_by_remote_write(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        script = {
            0: [("r", addr), ("b",)],
            1: [("b",), ("w", addr, 2)],
            2: [("b",)],
            3: [("b",)],
        }
        run_script(machine, script)
        block = machine.layout.block_of(addr)
        assert machine.nodes[0].cache.lookup(block) is None
        check_dirnnb_coherence(machine, region)

    def test_home_write_pulls_block_back_from_owner(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("w", addr, 3), ("b",)],
            0: [("b",), ("w", addr, 8), ("r", addr)],
            2: [("b",)],
            3: [("b",)],
        }
        reads = run_script(machine, script)
        assert reads[0] == [8]
        block = machine.layout.block_of(addr)
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 0
        assert machine.nodes[1].cache.lookup(block) is None
        check_dirnnb_coherence(machine, region)


class TestReplacement:
    def test_dirty_eviction_notifies_home(self):
        # A 512-byte 4-way cache has 4 sets; blocks 4 sets apart conflict.
        from repro.sim.config import CacheConfig
        machine, region = make_dirnnb_machine(
            nodes=2, shared_bytes=8 * 4096,
            cache=CacheConfig(size_bytes=512, associativity=4),
        )
        addr = addr_homed_on(machine, region, home=0)
        set_stride = 32 * 4  # block size * num sets
        script = {1: [("w", addr + i * set_stride, i) for i in range(6)]}
        run_script(machine, script)
        assert machine.stats.get("node1.cache.protocol_replacements") >= 1
        check_dirnnb_coherence(machine, region)

    def test_directory_exact_after_evictions(self):
        from repro.sim.config import CacheConfig
        machine, region = make_dirnnb_machine(
            nodes=2, shared_bytes=8 * 4096,
            cache=CacheConfig(size_bytes=512, associativity=4),
        )
        addr = addr_homed_on(machine, region, home=0)
        set_stride = 32 * 4
        script = {1: [("r", addr + i * set_stride, ) for i in range(8)]}
        run_script(machine, script)
        check_dirnnb_coherence(machine, region)


class TestContention:
    def test_simultaneous_writers_serialize(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {
            1: [("w", addr, 1)],
            2: [("w", addr, 2)],
            3: [("w", addr, 3)],
        })
        block = machine.layout.block_of(addr)
        entry = machine.nodes[0].directory.entries()[block]
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner in (1, 2, 3)
        check_dirnnb_coherence(machine, region)

    def test_all_nodes_read_same_block(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        machine.shared_image.write(addr, 6)
        reads = run_script(machine, {n: [("r", addr)] for n in range(4)})
        assert all(reads[n] == [6] for n in range(4))
        entry = machine.nodes[0].directory.entries()[
            machine.layout.block_of(addr)]
        assert entry.sharers() == {0, 1, 2, 3}
        check_dirnnb_coherence(machine, region)


class TestFirstTouchPlacement:
    def test_first_touch_rehomes_page(self):
        machine, region = make_dirnnb_machine(
            nodes=4, page_placement="first_touch"
        )
        # Page statically homed on node 0; node 2 touches it first.
        addr = region.base
        assert machine.heap.home_of(addr) == 0
        run_script(machine, {2: [("w", addr, 1)]})
        assert machine.home_of(addr) == 2
        # Node 2's subsequent misses on this page are local.
        run_script(machine, {2: [("r", addr + 64)]})
        assert machine.stats.get("node2.cpu.remote_misses") == 0

    def test_round_robin_default_ignores_first_touch(self, dirnnb4):
        machine, region = dirnnb4
        addr = region.base
        run_script(machine, {2: [("w", addr, 1)]})
        assert machine.home_of(addr) == machine.heap.home_of(addr)


# ----------------------------------------------------------------------
# The CPU's one-call paths: ``access`` probes the TLB dict, the cache set
# and the shared image's word dict itself, reads homes from the heap's
# table, and the sink dispatches through a handler-name table.
# ----------------------------------------------------------------------
def _counts(node):
    return (node.cpu_tlb.hits, node.cpu_tlb.misses, node.cache.hits,
            node.cache.misses, node.cache.upgrades)


class TestInlineProbes:
    def test_tlb_miss_evicts_fifo_as_the_method_does(self):
        from repro.memory.tlb import Tlb
        from repro.sim.config import TlbConfig

        config = TlbConfig(entries=2)
        machine, region = make_dirnnb_machine(nodes=2, tlb=config)
        node = machine.nodes[1]
        twin = Tlb(config)
        pages = list(range(region.base, region.end,
                           machine.layout.page_size))[:3]
        for addr in pages + [pages[1], pages[0]]:
            run_access(machine, 1, addr)
            twin.access(machine.layout.page_number(addr))
            assert list(node.cpu_tlb._entries) == list(twin._entries)
            assert (node.cpu_tlb.hits, node.cpu_tlb.misses) == (
                twin.hits, twin.misses)
        # The third page evicted the first; the fifth access missed.
        assert (twin.hits, twin.misses) == (1, 4)

    def test_cache_hit_counts_one_hit(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=1)
        run_access(machine, 1, addr)
        node = machine.nodes[1]
        before = _counts(node)
        _, cycles = run_access(machine, 1, addr + 8)
        assert cycles == machine.config.cache_hit_cycles
        after = _counts(node)
        assert [b - a for a, b in zip(before, after)] == [1, 0, 1, 0, 0]

    def test_store_to_shared_line_is_an_upgrade_and_a_miss(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("r", addr), ("b",)],
                             2: [("r", addr), ("b",)],
                             0: [("b",)], 3: [("b",)]})
        node = machine.nodes[1]
        block = machine.layout.block_of(addr)
        assert node.cache.lookup(block).state is LineState.SHARED
        before = _counts(node)
        run_access(machine, 1, addr, is_write=True, value=7)
        after = _counts(node)
        assert [b - a for a, b in zip(before, after)] == [1, 0, 0, 1, 1]
        assert node.cache.lookup(block).state is LineState.EXCLUSIVE
        assert machine.shared_image.read(addr) == 7

    def test_cold_miss_counts_one_miss(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        node = machine.nodes[2]
        before = _counts(node)
        run_access(machine, 2, addr)
        after = _counts(node)
        assert [b - a for a, b in zip(before, after)] == [0, 1, 0, 1, 0]

    def test_private_miss_fills_the_cache(self, dirnnb4):
        machine, _region = dirnnb4
        value, _ = run_access(machine, 1, 0x1000, is_write=True, value=3)
        assert value is None
        assert machine.nodes[1].cache.lookup(0x1000).state is (
            LineState.EXCLUSIVE)
        assert run_access(machine, 1, 0x1000)[0] == 3


class TestHomesAndSink:
    def test_rehome_after_build_is_seen_by_the_next_miss(self, dirnnb4):
        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=0)
        run_access(machine, 1, addr)
        machine.heap.rehome(addr, 2)
        block = machine.layout.block_of(addr + 64)
        run_access(machine, 1, addr + 64)
        assert block in machine.nodes[2].directory.entries()
        assert block not in machine.nodes[0].directory.entries()

    def test_unknown_handler_raises(self, dirnnb4):
        from repro.network.message import Message, VirtualNetwork
        from repro.sim.engine import SimulationError

        machine, _region = dirnnb4
        message = Message(src=1, dst=0, handler="dir.bogus",
                          vnet=VirtualNetwork.REQUEST, payload={})
        with pytest.raises(SimulationError, match="unknown DirNNB message"):
            machine.nodes[0]._receive(message)

    def test_history_records_a_hit_through_complete(self, dirnnb4):
        from repro.protocols.history import AccessHistory

        machine, region = dirnnb4
        addr = addr_homed_on(machine, region, home=1)
        node = machine.nodes[1]
        run_access(machine, 1, addr, is_write=True, value=4)
        calls = []
        complete = node._complete

        def counted(*args):
            calls.append(args)
            return complete(*args)

        node._complete = counted
        run_access(machine, 1, addr)  # a hit, no history: inline
        assert calls == []
        machine.history = AccessHistory()
        start = machine.engine.now
        value, cycles = run_access(machine, 1, addr)
        assert value == 4 and cycles == machine.config.cache_hit_cycles
        assert len(calls) == 1
        (record,) = machine.history.records
        assert (record.node, record.addr, record.is_write, record.value) == (
            1, addr, False, 4)
        assert (record.start, record.end) == (start, start + cycles)
