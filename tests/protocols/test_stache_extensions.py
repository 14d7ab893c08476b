"""Tests for the Stache library extensions: prefetch, check-in, migration."""

import pytest

from repro.memory.tags import Tag
from repro.protocols.directory import DirectoryState
from repro.protocols.verify import check_stache_coherence
from repro.sim.engine import SimulationError
from tests.protocols.conftest import (
    TEMPEST_STACHE,
    make_stache_machine,
    run_script,
)


def addr_homed_on(machine, region, home, offset=0):
    for page in range(region.base, region.end, machine.layout.page_size):
        if machine.heap.home_of(page) == home:
            return page + offset
    raise AssertionError(f"no page homed on {home}")


def home_block_entry(machine, block):
    home = machine.heap.home_of(block)
    page = machine.nodes[home].tempest.page_entry(block)
    return page.user_word.get(block)


class TestPrefetch:
    def test_prefetch_installs_block_without_blocking(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)
        machine.nodes[0].image.write(addr, 42)
        timeline = {}

        def worker(node_id):
            if node_id == 1:
                yield from protocol.prefetch(1, addr)
                timeline["after_issue"] = machine.engine.now
                yield 2000  # overlapped compute while the fetch flies
                value = yield from machine.nodes[1].access(addr, False)
                timeline["value"] = value
            else:
                yield 1

        machine.run_workers(worker)
        assert timeline["value"] == 42
        assert machine.stats.get("stache.prefetches_issued") == 1
        assert machine.stats.get("stache.prefetches_completed") == 1
        # The access after the overlap window never faulted.
        assert machine.stats.get("node1.cpu.block_faults") == 0
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].tags.read_tag(block) is Tag.READ_ONLY
        check_stache_coherence(machine, region)

    def test_fault_during_inflight_prefetch_waits_not_duplicates(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)
        machine.nodes[0].image.write(addr, 5)

        def worker(node_id):
            if node_id == 1:
                yield from protocol.prefetch(1, addr)
                # Touch immediately: the thread catches up with the fetch.
                value = yield from machine.nodes[1].access(addr, False)
                assert value == 5
            else:
                yield 1

        machine.run_workers(worker)
        assert machine.stats.get("stache.prefetch_hits_in_flight") == 1
        # Exactly one request reached the home.
        assert machine.stats.get("stache.ro_requests", 0) == 0
        assert machine.stats.get("stache.blocks_fetched") == 1
        check_stache_coherence(machine, region)

    def test_prefetch_of_present_block_is_noop(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id == 1:
                yield from machine.nodes[1].access(addr, False)
                yield from protocol.prefetch(1, addr)
                yield 500
            else:
                yield 1

        machine.run_workers(worker)
        assert machine.stats.get("stache.prefetches_issued") == 0

    def test_write_fault_on_prefetched_ro_copy_upgrades(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id == 1:
                yield from protocol.prefetch(1, addr)
                yield from machine.nodes[1].access(addr, True, 9)
            else:
                yield 1

        machine.run_workers(worker)
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].tags.read_tag(block) is Tag.READ_WRITE
        assert machine.nodes[1].image.read(addr) == 9
        check_stache_coherence(machine, region)


class TestCheckIn:
    def test_checkin_of_dirty_copy_returns_data_home(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id == 1:
                yield from machine.nodes[1].access(addr, True, 77)
                yield from protocol.check_in(1, addr)
                yield 200  # let the notification land
            else:
                yield 1

        machine.run_workers(worker)
        block = machine.layout.block_of(addr)
        assert machine.nodes[0].image.read(addr) == 77
        entry = home_block_entry(machine, block)
        assert entry.state is DirectoryState.HOME
        assert machine.nodes[0].tags.read_tag(block) is Tag.READ_WRITE
        assert machine.nodes[1].tags.read_tag(block) is Tag.INVALID
        assert machine.stats.get("stache.checkins") == 1
        check_stache_coherence(machine, region)

    def test_checkin_of_clean_copy_removes_sharer(self):
        machine, protocol, region = make_stache_machine(nodes=3)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id in (1, 2):
                yield from machine.nodes[node_id].access(addr, False)
                if node_id == 1:
                    yield from protocol.check_in(1, addr)
                yield 300
            else:
                yield 1

        machine.run_workers(worker)
        block = machine.layout.block_of(addr)
        entry = home_block_entry(machine, block)
        assert entry.sharers() == {2}
        assert entry.state is DirectoryState.SHARED
        check_stache_coherence(machine, region)

    def test_checkin_of_last_clean_copy_restores_home_ownership(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id == 1:
                yield from machine.nodes[1].access(addr, False)
                yield from protocol.check_in(1, addr)
                yield 300
            else:
                yield 400

        machine.run_workers(worker)
        block = machine.layout.block_of(addr)
        entry = home_block_entry(machine, block)
        assert entry.state is DirectoryState.HOME
        assert machine.nodes[0].tags.read_tag(block) is Tag.READ_WRITE
        check_stache_coherence(machine, region)

    def test_checkin_without_copy_is_noop(self):
        machine, protocol, region = make_stache_machine(nodes=2)
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            yield from protocol.check_in(node_id, addr)
            yield 10

        machine.run_workers(worker)
        assert machine.stats.get("stache.checkins") == 0

    def test_checkin_avoids_later_invalidation_roundtrip(self):
        """The cooperative-shared-memory payoff: fewer messages."""

        def run(with_checkin):
            machine, protocol, region = make_stache_machine(nodes=3, seed=9)
            addr = addr_homed_on(machine, region, home=0)

            def worker(node_id):
                if node_id == 1:
                    yield from machine.nodes[1].access(addr, True, 1)
                    if with_checkin:
                        yield from protocol.check_in(1, addr)
                    yield machine.barrier.arrive(1)
                elif node_id == 2:
                    yield machine.barrier.arrive(2)
                    yield from machine.nodes[2].access(addr, True, 2)
                else:
                    yield machine.barrier.arrive(0)

            machine.run_workers(worker)
            remote = (machine.stats.get("network.packets")
                      - machine.stats.get("network.local_packets"))
            return remote, machine.stats.get("stache.writeback_requests")

        packets_plain, wb_plain = run(with_checkin=False)
        packets_checkin, wb_checkin = run(with_checkin=True)
        # Without check-in, node 2's write forces a 3-hop writeback chain;
        # with it, the home satisfies node 2 directly.
        assert wb_plain == 1
        assert wb_checkin == 0
        assert packets_checkin < packets_plain


class TestPageMigration:
    def make(self):
        machine, protocol, region = make_stache_machine(nodes=3)
        page = addr_homed_on(machine, region, home=0)
        return machine, protocol, region, page

    def test_migrates_data_home_and_mapping_table(self):
        machine, protocol, region, page = self.make()
        machine.nodes[0].image.write(page + 8, "payload")

        def worker(node_id):
            if node_id == 0:
                yield from protocol.migrate_page(0, page, new_home=2)
            else:
                yield 1

        machine.run_workers(worker)
        assert machine.heap.home_of(page) == 2
        assert machine.nodes[2].image.read(page + 8) == "payload"
        assert machine.nodes[2].tempest.page_entry(page).mode == 1  # HOME
        assert machine.nodes[0].tempest.page_entry(page) is None
        assert machine.stats.get("stache.pages_migrated") == 1

    @pytest.mark.parametrize("system", TEMPEST_STACHE)
    def test_migration_runs_on_every_tempest_backend(self, system):
        """Library waits go through ``Tempest.wait``, so the migration's
        ready and transfer waits keep a CPU-run dispatcher servicing."""
        machine, protocol, region = make_stache_machine(nodes=3,
                                                        system=system)
        page = addr_homed_on(machine, region, home=0)
        machine.nodes[0].image.write(page + 8, "payload")

        def worker(node_id):
            if node_id == 0:
                yield from protocol.migrate_page(0, page, new_home=2)
            else:
                yield 1

        machine.run_workers(worker)
        assert machine.heap.home_of(page) == 2
        assert machine.nodes[2].image.read(page + 8) == "payload"
        assert machine.nodes[2].tempest.page_entry(page).mode == 1  # HOME
        assert machine.nodes[0].tempest.page_entry(page) is None
        assert machine.stats.get("stache.pages_migrated") == 1

    def test_access_after_migration_reaches_new_home(self):
        machine, protocol, region, page = self.make()
        machine.nodes[0].image.write(page, 11)

        def worker(node_id):
            if node_id == 0:
                yield from protocol.migrate_page(0, page, new_home=2)
                yield machine.barrier.arrive(0)
            elif node_id == 1:
                yield machine.barrier.arrive(1)
                value = yield from machine.nodes[1].access(page, False)
                assert value == 11
            else:
                yield machine.barrier.arrive(2)

        machine.run_workers(worker)
        block = machine.layout.block_of(page)
        entry = machine.nodes[2].tempest.page_entry(page).user_word[block]
        assert entry.sharers() == {1}

    def test_stale_home_cache_is_forwarded_and_refreshed(self):
        machine, protocol, region, page = self.make()

        def worker(node_id):
            if node_id == 1:
                # Cache the old home id by stacheing the page first.
                yield from machine.nodes[1].access(page, False)
                yield from protocol.check_in(1, page)
                yield machine.barrier.arrive(1)
                yield machine.barrier.arrive(1)
                # The stache page still says home=0; the request must be
                # forwarded to node 2.
                yield from machine.nodes[1].access(page + 32, False)
                assert machine.nodes[1].tempest.page_entry(page).home == 2
            elif node_id == 0:
                yield machine.barrier.arrive(0)
                yield 300  # let node 1's check-in notification land
                yield from protocol.migrate_page(0, page, new_home=2)
                yield machine.barrier.arrive(0)
            else:
                yield machine.barrier.arrive(2)
                yield machine.barrier.arrive(2)

        machine.run_workers(worker)
        assert machine.stats.get("stache.requests_forwarded") == 1

    def test_old_home_can_stache_its_former_page(self):
        machine, protocol, region, page = self.make()
        machine.nodes[0].image.write(page, 3)

        def worker(node_id):
            if node_id == 0:
                yield from protocol.migrate_page(0, page, new_home=2)
                value = yield from machine.nodes[0].access(page, False)
                assert value == 3
            else:
                yield 1

        machine.run_workers(worker)
        entry = machine.nodes[0].tempest.page_entry(page)
        assert entry.mode == 2  # a stache page now
        assert entry.home == 2

    def test_migration_requires_quiescence(self):
        machine, protocol, region, page = self.make()

        def worker(node_id):
            if node_id == 1:
                yield from machine.nodes[1].access(page, False)
                yield machine.barrier.arrive(1)
            elif node_id == 0:
                yield machine.barrier.arrive(0)
                yield from protocol.migrate_page(0, page, new_home=2)
            else:
                yield machine.barrier.arrive(2)

        with pytest.raises(SimulationError, match="quiescence"):
            machine.run_workers(worker)

    def test_migration_target_validation(self):
        machine, protocol, region, page = self.make()

        def bad_target(node_id):
            if node_id == 0:
                yield from protocol.migrate_page(0, page, new_home=0)
            else:
                yield 1

        with pytest.raises(SimulationError, match="bad migration target"):
            machine.run_workers(bad_target)
