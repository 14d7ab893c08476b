"""Tests for the message-based software barrier."""

import pytest

from repro.backends import compose
from repro.sim.config import MachineConfig
from repro.tempest.swbarrier import SoftwareBarrier
from repro.typhoon.system import TyphoonMachine
from tests.protocols.conftest import TEMPEST_STACHE


@pytest.fixture
def machine():
    return TyphoonMachine(MachineConfig(nodes=4, seed=11))


def test_releases_only_after_all_arrive(machine):
    barrier = SoftwareBarrier(machine.tempests)
    release_times = {}

    def worker(node_id):
        yield node_id * 100  # staggered arrivals
        yield from machine.wait(node_id, barrier.arrive(node_id))
        release_times[node_id] = machine.engine.now

    machine.run_workers(worker)
    # No one is released before the last arrival (node 3 at t=300).
    assert min(release_times.values()) >= 300
    assert barrier.episodes_completed == 1


def test_multiple_episodes_stay_in_lockstep(machine):
    barrier = SoftwareBarrier(machine.tempests, coordinator=2)
    trace = []

    def worker(node_id):
        for phase in range(3):
            yield (node_id + 1) * 17
            yield from machine.wait(node_id, barrier.arrive(node_id))
            trace.append((phase, node_id))

    machine.run_workers(worker)
    assert barrier.episodes_completed == 3
    phases = [phase for phase, _node in trace]
    assert phases == sorted(phases)


def test_fast_node_rearrival_does_not_poison_next_episode(machine):
    """A node can race to episode k+1 while others process episode k."""
    barrier = SoftwareBarrier(machine.tempests)
    counts = {n: 0 for n in range(4)}

    def worker(node_id):
        for _ in range(4):
            if node_id != 0:
                yield 150  # node 0 is much faster
            yield from machine.wait(node_id, barrier.arrive(node_id))
            counts[node_id] += 1

    machine.run_workers(worker)
    assert all(count == 4 for count in counts.values())
    assert barrier.episodes_completed == 4


def test_software_barrier_costs_more_than_hardware(machine):
    sw = SoftwareBarrier(machine.tempests)

    def sw_worker(node_id):
        yield from machine.wait(node_id, sw.arrive(node_id))

    machine.run_workers(sw_worker)
    sw_cycles = machine.execution_time

    machine2 = TyphoonMachine(MachineConfig(nodes=4, seed=11))

    def hw_worker(node_id):
        yield machine2.barrier.arrive(node_id)

    machine2.run_workers(hw_worker)
    assert sw_cycles > machine2.execution_time


def test_machine_level_software_barrier_option(machine):
    """TyphoonMachine.use_software_barrier reroutes ctx.barrier()."""
    machine.use_software_barrier(coordinator=1)
    release = {}

    def worker(node_id):
        yield node_id * 40
        yield from machine.barrier_wait(node_id)
        release[node_id] = machine.engine.now

    machine.run_workers(worker)
    # Everyone released together, after the last arrival (node 3 at 120),
    # via messages (so later than a hardware barrier would manage).
    assert min(release.values()) > 120
    assert machine.barrier.episodes_completed == 1


def test_two_barriers_are_independent(machine):
    a = SoftwareBarrier(machine.tempests, name="a")
    b = SoftwareBarrier(machine.tempests, name="b")

    def worker(node_id):
        yield from machine.wait(node_id, a.arrive(node_id))
        yield from machine.wait(node_id, b.arrive(node_id))

    machine.run_workers(worker)
    assert a.episodes_completed == 1
    assert b.episodes_completed == 1


@pytest.mark.parametrize("system", TEMPEST_STACHE)
def test_two_episodes_on_every_tempest_backend(system):
    """Arrivals wait through ``machine.wait``, so a backend whose CPU
    runs the handlers still counts arrivals and delivers releases."""
    machine = compose(system, MachineConfig(nodes=4, seed=11))[0]
    barrier = SoftwareBarrier(machine.tempests, coordinator=1)
    trace = []

    def worker(node_id):
        for phase in range(2):
            yield (node_id + 1) * 50
            yield from machine.wait(node_id, barrier.arrive(node_id))
            trace.append((phase, node_id))

    machine.run_workers(worker)
    assert barrier.episodes_completed == 2
    assert [phase for phase, _node in trace] == [0] * 4 + [1] * 4
