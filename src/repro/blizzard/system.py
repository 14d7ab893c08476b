"""Whole-machine assembly for the software Tempest backend."""

from __future__ import annotations

from typing import Callable, Generator

from repro.blizzard.node import BlizzardNode
from repro.machine import TempestMachine
from repro.tempest.port import CostDomain


class BlizzardMachine(TempestMachine):
    """N commodity nodes running Tempest entirely in software."""

    system_name = "blizzard"
    node_class = BlizzardNode
    cost_domain = CostDomain.from_blizzard

    def wait(self, node_id: int, future) -> Generator:
        """Completion wait that keeps servicing protocol messages.

        With no NP, a node blocked on a barrier, a lock grant or a
        transfer is the only thing that can run handlers for requests
        targeting it — so the wait loop polls (which is also how real
        polling-based systems avoid deadlock at synchronization points).
        """
        yield from self.nodes[node_id]._spin_until(future)
        return future.value

    def run_workers(self, worker_factory: Callable[[int], Generator]):
        """Run workers inside a dispatcher loop, then drain leftovers.

        A node whose application code has finished must keep servicing
        protocol requests (it may be the home of data other nodes still
        use) — the runtime's dispatcher loop in a real polling system.
        Each worker is therefore wrapped: after its application part
        completes, the node spins servicing messages until every node's
        application part is done.

        Messages still in flight at that point are drained afterwards
        (uncharged; the clock has stopped) so post-run state inspection
        sees a quiescent machine.
        """
        from repro.sim.process import SYNC, Future

        done_count = [0]
        all_done = Future(self.engine)

        def wrapped(node_id: int) -> Generator:
            result = yield from worker_factory(node_id)
            # The count is shared by every node: a sync point.
            yield SYNC
            done_count[0] += 1
            if done_count[0] == self.num_nodes:
                all_done.resolve(None)
            yield from self.wait(node_id, all_done)
            return result

        finish_times = super().run_workers(wrapped)
        for _sweep in range(self.num_nodes + 1):
            drained = [node.drain() for node in self.nodes]
            self.engine.run()
            if not any(drained):
                break
        return finish_times
