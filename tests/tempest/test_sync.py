"""Tests for the message-built synchronization primitives (extension)."""

import pytest

from repro.backends import compose
from repro.sim.config import MachineConfig
from repro.sim.process import Process
from repro.tempest.sync import FetchAndOp, TempestLock
from repro.typhoon.system import TyphoonMachine
from tests.protocols.conftest import TEMPEST_STACHE


@pytest.fixture
def machine():
    return TyphoonMachine(MachineConfig(nodes=4, seed=3))


class TestLock:
    def test_mutual_exclusion(self, machine):
        lock = TempestLock(machine.tempests, home=0)
        in_section = [0]
        max_in_section = [0]

        def worker(node):
            for _ in range(3):
                yield from lock.acquire(node)
                in_section[0] += 1
                max_in_section[0] = max(max_in_section[0], in_section[0])
                yield 20  # critical section work
                in_section[0] -= 1
                yield from lock.release(node)

        machine.run_workers(lambda n: worker(n))
        assert max_in_section[0] == 1

    def test_fifo_granting_under_contention(self, machine):
        lock = TempestLock(machine.tempests, home=1)
        order = []

        def worker(node):
            yield node * 2  # stagger the requests
            yield from lock.acquire(node)
            order.append(node)
            yield 100  # hold long enough that everyone queues
            yield from lock.release(node)

        machine.run_workers(lambda n: worker(n))
        # Requests are granted in arrival order at the home (node 1).
        # Node 1's own request short-circuits the network (arrives cycle
        # ~3) and beats node 0's message (sent at 0, arrives at 11);
        # nodes 2 and 3 arrive at 15 and 17.
        assert order == [1, 0, 2, 3]

    def test_release_of_unheld_lock_raises(self, machine):
        lock = TempestLock(machine.tempests, home=0)

        def worker(node):
            if node == 0:
                yield from lock.release(node)
            else:
                yield 1

        with pytest.raises(RuntimeError, match="unheld"):
            machine.run_workers(lambda n: worker(n))


class TestFetchAndOp:
    def test_counter_counts_every_increment(self, machine):
        counter = FetchAndOp(machine.tempests, home=2)

        def worker(node):
            for _ in range(5):
                yield from counter.apply(node, 1)

        machine.run_workers(lambda n: worker(n))
        assert counter.value == 20

    def test_old_values_are_unique_tickets(self, machine):
        counter = FetchAndOp(machine.tempests, home=0)
        tickets = []

        def worker(node):
            ticket = yield from counter.apply(node, 1)
            tickets.append(ticket)

        machine.run_workers(lambda n: worker(n))
        assert sorted(tickets) == [0, 1, 2, 3]

    def test_custom_op(self, machine):
        cell = FetchAndOp(machine.tempests, home=0, initial=2,
                          op=lambda old, arg: old * arg)

        def worker(node):
            if node == 0:
                yield from cell.apply(node, 10)
            else:
                yield 1

        machine.run_workers(lambda n: worker(n))
        assert cell.value == 20


@pytest.mark.parametrize("system", TEMPEST_STACHE)
class TestEveryTempestBackend:
    """The primitives wait through ``Tempest.wait``, so they complete
    with the same results on a backend whose CPU runs the handlers."""

    def machine(self, system):
        return compose(system, MachineConfig(nodes=4, seed=3))[0]

    def test_lock_excludes_and_grants_in_arrival_order(self, system):
        machine = self.machine(system)
        lock = TempestLock(machine.tempests, home=1)
        in_section = [0]
        max_in_section = [0]
        order = []

        def worker(node):
            yield node * 200  # arrivals well apart: a fixed FIFO order
            yield from lock.acquire(node)
            order.append(node)
            in_section[0] += 1
            max_in_section[0] = max(max_in_section[0], in_section[0])
            yield 2000  # hold long enough that everyone queues
            in_section[0] -= 1
            yield from lock.release(node)

        machine.run_workers(worker)
        assert max_in_section[0] == 1
        assert order == [0, 1, 2, 3]

    def test_fetch_and_op_returns_each_old_value(self, system):
        machine = self.machine(system)
        counter = FetchAndOp(machine.tempests, home=0)
        tickets = []

        def worker(node):
            ticket = yield from counter.apply(node, 1)
            tickets.append(ticket)

        machine.run_workers(worker)
        assert sorted(tickets) == [0, 1, 2, 3]
        assert counter.value == 4
