"""Tests for the IVY-style page-granularity DSM protocol."""

import pytest

from repro.memory.tags import Tag
from repro.protocols.history import AccessHistory, check_register_consistency
from repro.protocols.ivy import PAGE_MODE_IVY, IvyProtocol
from repro.sim.config import MachineConfig
from repro.typhoon.system import TyphoonMachine
from tests.protocols.conftest import run_script


def make_machine(nodes=4, seed=1, pages=4):
    machine = TyphoonMachine(MachineConfig(nodes=nodes, seed=seed))
    protocol = IvyProtocol()
    machine.install_protocol(protocol)
    region = machine.heap.allocate(pages * 4096, label="ivy")
    protocol.setup_region(region)
    return machine, protocol, region


def addr_homed_on(machine, region, home):
    for page in range(region.base, region.end, machine.layout.page_size):
        if machine.heap.home_of(page) == home:
            return page
    raise AssertionError


def page_tags(machine, node, page_addr):
    return set(machine.nodes[node].tags.page_tags(page_addr))


class TestBasics:
    def test_manager_starts_as_owner_with_writable_page(self):
        machine, protocol, region = make_machine()
        manager = machine.heap.home_of(region.base)
        assert page_tags(machine, manager, region.base) == {Tag.READ_WRITE}

    def test_remote_read_ships_whole_page(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        machine.nodes[0].image.write(addr + 120, 7)
        machine.nodes[0].image.write(addr + 3000, 8)
        reads = run_script(machine, {1: [("r", addr + 120)]})
        assert reads[1] == [7]
        # The *whole page* came over: a word this node never touched is
        # present, and the page is uniformly readable.
        assert machine.nodes[1].image.read(addr + 3000) == 8
        assert page_tags(machine, 1, addr) == {Tag.READ_ONLY}
        # Owner demoted to read-only.
        assert page_tags(machine, 0, addr) == {Tag.READ_ONLY}
        assert machine.stats.get("ivy.page_transfers") == 1

    def test_remote_write_takes_page_ownership(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("w", addr, 5)]})
        assert page_tags(machine, 1, addr) == {Tag.READ_WRITE}
        assert page_tags(machine, 0, addr) == {Tag.INVALID}
        state = protocol._state(0, addr)
        assert state.owner == 1
        assert not state.busy

    def test_write_invalidates_all_readers(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("r", addr), ("b",)],
            2: [("r", addr), ("b",)],
            3: [("b",), ("w", addr, 9)],
            0: [("b",)],
        }
        run_script(machine, script)
        assert page_tags(machine, 1, addr) == {Tag.INVALID}
        assert page_tags(machine, 2, addr) == {Tag.INVALID}
        assert page_tags(machine, 3, addr) == {Tag.READ_WRITE}
        state = protocol._state(0, addr)
        assert state.owner == 3
        assert state.copyset == set()

    def test_upgrade_by_reader(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        reads = run_script(machine, {1: [("r", addr), ("w", addr, 3),
                                         ("r", addr)]})
        assert reads[1] == [0, 3]
        assert protocol._state(0, addr).owner == 1

    def test_reads_after_write_see_new_data(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        script = {
            1: [("w", addr + 64, 42), ("b",)],
            2: [("b",), ("r", addr + 64)],
            0: [("b",)],
            3: [("b",)],
        }
        reads = run_script(machine, script)
        assert reads[2] == [42]

    def test_mode_is_ivy_everywhere(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("r", addr)]})
        assert machine.nodes[1].tempest.page_entry(addr).mode == PAGE_MODE_IVY


class TestContention:
    def test_concurrent_writers_serialize_via_manager(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {
            1: [("w", addr, 1)],
            2: [("w", addr, 2)],
            3: [("w", addr, 3)],
        })
        state = protocol._state(0, addr)
        assert state.owner in (1, 2, 3)
        assert not state.busy
        assert not state.queue
        owner_tags = page_tags(machine, state.owner, addr)
        assert owner_tags == {Tag.READ_WRITE}

    def test_register_consistency_under_random_load(self):
        machine, protocol, region = make_machine()
        machine.history = AccessHistory()
        import random
        rng = random.Random(5)
        script = {n: [] for n in range(4)}
        for _ in range(40):
            node = rng.randrange(4)
            page = rng.randrange(4)
            offset = rng.randrange(0, 4096, 8)
            addr = region.base + page * 4096 + offset
            if rng.random() < 0.5:
                script[node].append(("w", addr, (node, len(script[node]))))
            else:
                script[node].append(("r", addr))
        run_script(machine, script)
        violations = check_register_consistency(machine.history)
        assert violations == [], "\n".join(str(v) for v in violations)


    def test_recall_overtaking_its_grant_waits_for_it(self):
        """On a lossy network a recall or invalidation can overtake the
        grant that created the copy it chases (grants ride the response
        network, recalls and invalidations the request network).  The
        node must defer it until the grant is installed; installing the
        late grant afterwards left two writers, and this run read a
        stale 0 (node 2, block 1)."""
        from tests.integration.test_fault_resilience import run_under_faults

        machine, protocol, region = make_machine(seed=2, pages=1)
        run_under_faults(machine, region, [
            (2, False, 0, 0, 675), (3, False, 0, 1, 647),
            (3, False, 0, 1, 624), (0, True, 0, 0, 24),
            (2, False, 0, 1, 833), (1, True, 0, 1, 927),
        ])
        assert machine.stats.get("ivy.overtaken_grants") >= 1

    @pytest.mark.parametrize(
        "system", ["typhoon:ivy", "decoupled:ivy", "blizzard:ivy"])
    def test_access_completes_on_a_grant_its_recall_overtook(self, system):
        """Node 2's recall reaches node 1 before node 1's delayed write
        grant.  The recall waits for the grant *and* for the write it
        enables, so each node faults once; serving the recall with the
        grant took the page away first, and node 1 faulted again."""
        from repro.protocols.explore import SynthesizedCase, run_case

        case = SynthesizedCase(
            protocol="ivy", name="overtaken-grant", nodes=3, blocks=1,
            programs={1: [("w", 0, 0)], 2: [("w", 0, 2000)]},
            schedule=[{"handler": "ivy.grant", "src": 0, "dst": 1,
                       "occurrence": 1, "action": None, "delay": 10_000}],
            edges=[], expect_stats={}, trace=[])
        machine = run_case(case, system).machine
        assert machine.stats.get("ivy.overtaken_grants") == 1
        assert machine.stats.get("ivy.page_requests") == 2
        assert [record.node for record in machine.history.records] == [1, 2]
        assert check_register_consistency(machine.history) == []


class TestGranularityEffect:
    def test_false_sharing_thrashes_pages_but_not_blocks(self):
        """The Section 2.4 argument, quantified: two nodes writing
        *different blocks of the same page* ping-pong the whole page
        under IVY, while Stache gives each node its own block once."""
        rounds = 6

        def run(protocol_cls):
            machine = TyphoonMachine(MachineConfig(nodes=2, seed=1))
            protocol = protocol_cls()
            machine.install_protocol(protocol)
            region = machine.heap.allocate(4096, home=0, label="fs")
            protocol.setup_region(region)
            script = {
                0: [],
                1: [],
            }
            for round_ in range(rounds):
                script[0].append(("w", region.base, round_))
                script[0].append(("b",))
                script[1].append(("w", region.base + 2048, round_))
                script[1].append(("b",))
            run_script(machine, script)
            remote = (machine.stats.get("network.packets")
                      - machine.stats.get("network.local_packets"))
            return machine.execution_time, remote

        from repro.protocols.stache import StacheProtocol

        ivy_time, ivy_packets = run(IvyProtocol)
        stache_time, stache_packets = run(StacheProtocol)
        # Stache: node 1 fetches its block once; afterwards both write
        # locally forever.  IVY: the page bounces every round.
        assert stache_packets < ivy_packets / 5
        assert stache_time < ivy_time
