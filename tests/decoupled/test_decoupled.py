"""Tests for the decoupled software-handler Tempest backend.

The third backend's claims, as executable tests: unmodified protocol
libraries install and run; handlers execute on the second CPU (the
handler processor) concurrently with computation, paying a software
dispatch overhead per work item; faulting accesses suspend the compute
thread Typhoon-style; and the machine keeps bare-future waits, so the
em3d update protocol — illegal on Blizzard — runs here.
"""

import math

from repro.apps.base import run_app
from repro.apps.em3d import VALUE_OFFSET, Em3dApplication
from repro.apps.ocean import OceanApplication
from repro.blizzard.system import BlizzardMachine
from repro.decoupled.system import DecoupledMachine
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.memory.tags import Tag
from repro.network.faults import FaultSpec
from repro.network.message import Message, VirtualNetwork
from repro.protocols.stache import StacheProtocol
from repro.protocols.verify import check_stache_coherence
from repro.sim.config import DecoupledCosts, MachineConfig
from repro.typhoon.system import TyphoonMachine


def make_machine(nodes=4, seed=1, **config_kwargs):
    machine = DecoupledMachine(MachineConfig(nodes=nodes, seed=seed,
                                             **config_kwargs))
    protocol = StacheProtocol()
    machine.install_protocol(protocol)
    region = machine.heap.allocate(4 * 4096, label="test")
    protocol.setup_region(region)
    return machine, protocol, region


def addr_homed_on(machine, region, home):
    for page in range(region.base, region.end, machine.layout.page_size):
        if machine.heap.home_of(page) == home:
            return page
    raise AssertionError


class TestUnchangedProtocol:
    """The Tempest portability claim: Stache installs verbatim."""

    def test_stache_installs_without_modification(self):
        machine, protocol, region = make_machine()
        assert isinstance(protocol, StacheProtocol)
        assert "stache.get_ro" in machine.nodes[0].registry

    def test_remote_read_fetches_correct_value(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)
        machine.nodes[0].image.write(addr, 99)
        got = {}

        def worker(node_id):
            if node_id == 1:
                got["value"] = yield from machine.nodes[1].access(addr, False)
            else:
                yield 1

        machine.run_workers(worker)
        assert got["value"] == 99
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].tags.read_tag(block) is Tag.READ_ONLY
        check_stache_coherence(machine, region)

    def test_write_invalidation_suspends_and_resumes_the_faulting_cpu(self):
        machine, protocol, region = make_machine()
        addr = addr_homed_on(machine, region, home=0)

        def worker(node_id):
            if node_id == 1:
                yield from machine.nodes[1].access(addr, False)
                yield from machine.barrier_wait(1)
            elif node_id == 2:
                yield from machine.barrier_wait(2)
                yield from machine.nodes[2].access(addr, True, 5)
            else:
                yield from machine.barrier_wait(node_id)

        machine.run_workers(worker)
        block = machine.layout.block_of(addr)
        assert machine.nodes[1].tags.read_tag(block) is Tag.INVALID
        assert machine.nodes[2].tags.read_tag(block) is Tag.READ_WRITE
        check_stache_coherence(machine, region)
        # The faulting accesses went through the suspend/enqueue/resume
        # path: the compute CPUs saw block faults, the handler
        # processors ran the handlers.
        stats = machine.stats
        assert stats.total(".cpu.block_faults") > 0
        assert stats.total(".hp.block_faults") > 0

    def test_applications_match_reference(self):
        machine = DecoupledMachine(MachineConfig(nodes=4, seed=1))
        protocol = StacheProtocol()
        machine.install_protocol(protocol)
        app = OceanApplication(grid=12, iterations=2, seed=3)
        run_app(machine, app, protocol)
        ref = app.reference_values()
        which = app.final_grid_index()
        for row in range(app.grid):
            for col in range(app.grid):
                got = app.peek(machine, app.cell_addr(which, row, col))
                assert math.isclose(got, ref[row][col], rel_tol=1e-9,
                                    abs_tol=1e-9)


class TestHandlerProcessor:
    """The second CPU: dispatch accounting and queue discipline."""

    def run_em3d(self, machine_cls, **config_kwargs):
        machine = machine_cls(MachineConfig(nodes=4, seed=1, **config_kwargs))
        protocol = StacheProtocol()
        machine.install_protocol(protocol)
        app = Em3dApplication(nodes_per_proc=8, degree=3,
                              remote_fraction=0.4, iterations=2, seed=5)
        return run_app(machine, app, protocol), machine

    def test_handlers_run_on_the_second_cpu(self):
        _, machine = self.run_em3d(DecoupledMachine)
        stats = machine.stats
        assert stats.total(".hp.handlers_run") > 0
        assert stats.total(".hp.handler_cycles") > 0
        # Nothing runs on Blizzard's compute-CPU dispatcher here.
        assert stats.total(".sw.handlers_run") == 0

    def test_every_dispatch_pays_the_software_overhead(self):
        _, machine = self.run_em3d(DecoupledMachine)
        costs = machine.config.decoupled
        overhead = costs.poll_notice_cycles + costs.dispatch_cycles
        stats = machine.stats
        handlers = stats.total(".hp.handlers_run")
        assert stats.total(".hp.handler_cycles") >= handlers * overhead

    def test_cost_ordering_typhoon_decoupled_blizzard(self):
        """The design-space ordering the three cost domains encode:
        hardware NP beats a second commodity CPU, which beats
        dispatching on the computation CPU."""
        typhoon_time, _ = self.run_em3d(TyphoonMachine)
        decoupled_time, _ = self.run_em3d(DecoupledMachine)
        blizzard_time, _ = self.run_em3d(BlizzardMachine)
        assert typhoon_time < decoupled_time < blizzard_time

    def test_write_checks_are_charged_on_the_compute_cpu(self):
        cheap, _ = self.run_em3d(DecoupledMachine)
        costly, _ = self.run_em3d(
            DecoupledMachine,
            decoupled=DecoupledCosts(check_write_cycles=30,
                                     check_read_cycles=10),
        )
        assert costly > cheap

    def test_bounded_inbox_nacks_tracked_requests_only(self):
        machine, _protocol, _region = make_machine(nodes=2)
        machine.install_fault_plan(
            FaultSpec(name="bounded", recv_queue_limit=0, retry_timeout=100))
        hp = machine.nodes[0].hp
        assert hp._recv_limit == 0
        tracked = Message(src=1, dst=0, handler="stache.get_ro",
                          vnet=VirtualNetwork.REQUEST, xid=7)
        hp.enqueue_message(tracked)
        assert tracked.nacked
        assert machine.stats.get("node0.hp.nacks_sent") == 1
        # Responses must always sink, bound or no bound.
        response = Message(src=1, dst=0, handler="stache.get_ro",
                           vnet=VirtualNetwork.RESPONSE, xid=8)
        hp.enqueue_message(response)
        assert not response.nacked
        assert machine.stats.get("node0.hp.messages_received") == 1


class TestBareFutureWaits:
    """The decoupled-handlers capability, exercised for real."""

    def test_em3d_update_protocol_runs_and_matches_reference(self):
        """The composition the whole backend exists to legalise:
        the em3d update protocol blocks compute threads on bare futures
        at the flush/fuzzy barrier while handler processors count
        arriving updates — a deadlock on Blizzard, correct here."""
        from repro.protocols.em3d_update import Em3dUpdateProtocol

        machine = DecoupledMachine(MachineConfig(nodes=4, seed=1))
        protocol = Em3dUpdateProtocol()
        machine.install_protocol(protocol)
        app = Em3dApplication(nodes_per_proc=8, degree=3,
                              remote_fraction=0.3, iterations=2, seed=5)
        run_app(machine, app, protocol)
        assert machine.stats.total(".hp.handlers_run") > 0
        ref_e, _ = app.reference_values()
        for index in range(app.e_nodes.count):
            got = app.peek(machine, app.e_nodes.addr(index, VALUE_OFFSET))
            assert math.isclose(got, ref_e[index], rel_tol=1e-9,
                                abs_tol=1e-9)

    def test_composed_system_runs_clean_under_conformance(self):
        config = MachineConfig(nodes=4, seed=7).with_cache_size(2048)
        res = run_application("decoupled:em3d-update",
                              workload("em3d", "small").build(), config,
                              conformance=True)
        assert res["refs"] > 0
        monitor = res["machine"].conformance
        assert monitor.checks > 0
        assert monitor.violations == []

    def test_machine_keeps_bare_future_waits(self):
        """Structural proof of the capability: the decoupled machine
        inherits MachineBase's bare-future wait, where Blizzard must
        override it to spin its dispatcher; the barrier waits through
        ``wait`` on every machine."""
        from repro.machine import MachineBase

        assert DecoupledMachine.wait is MachineBase.wait
        assert BlizzardMachine.wait is not MachineBase.wait
        assert DecoupledMachine.barrier_wait is MachineBase.barrier_wait
        assert BlizzardMachine.barrier_wait is MachineBase.barrier_wait
