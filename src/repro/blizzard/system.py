"""Whole-machine assembly for the software Tempest backend."""

from __future__ import annotations

from typing import Callable, Generator

from repro.blizzard.node import BlizzardNode
from repro.machine import MachineBase
from repro.sim.config import MachineConfig
from repro.tempest.port import CostDomain


class BlizzardMachine(MachineBase):
    """N commodity nodes running Tempest entirely in software."""

    system_name = "blizzard"

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.costs = CostDomain.from_blizzard(config.blizzard)
        self.nodes: list[BlizzardNode] = [
            BlizzardNode(node_id, self) for node_id in range(config.nodes)
        ]
        self.protocol = None

    @property
    def tempests(self) -> list:
        return [node.tempest for node in self.nodes]

    def install_protocol(self, protocol) -> None:
        if self.protocol is not None:
            raise RuntimeError("a protocol is already installed")
        self.protocol = protocol
        protocol.install(self)
        self._maybe_auto_conformance()

    # ------------------------------------------------------------------
    def barrier_wait(self, node_id: int) -> Generator:
        """Barrier arrival that keeps servicing protocol messages.

        With no NP, a node stalled at a barrier is the only thing that
        can run handlers for requests targeting it — so the wait loop
        polls (which is also how real polling-based systems avoid
        deadlock at synchronization points).
        """
        node = self.nodes[node_id]
        yield from node.spin_until(self.barrier.arrive(node_id))

    def wait(self, node_id: int, future) -> Generator:
        """Completion wait that keeps the software dispatcher running."""
        yield from self.nodes[node_id].spin_until(future)

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
            yield from self.nodes[node_id].spin_until(all_done)
            return result

        finish_times = super().run_workers(wrapped)
        for _sweep in range(self.num_nodes + 1):
            progressed = False
            for node in self.nodes:
                while node._inbox:
                    message = node._pick_next_message()
                    spec = node.registry.lookup(message.handler)
                    spec.fn(node.tempest, message)
                    if self.conformance is not None:
                        self.conformance.after_handler(node.node_id, message)
                    node.np.take_charge()
                    progressed = True
            self.engine.run()
            if not progressed:
                break
        return finish_times

    def __repr__(self) -> str:
        protocol = type(self.protocol).__name__ if self.protocol else "none"
        return (
            f"BlizzardMachine(nodes={self.num_nodes}, protocol={protocol})"
        )
