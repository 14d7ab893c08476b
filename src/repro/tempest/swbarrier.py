"""A software barrier built from Tempest active messages.

Typhoon inherits a dedicated low-latency barrier network from the CM-5
(Table 2's 11-cycle barrier).  A machine without one would synthesize
barriers from messages — and Tempest users can, with nothing but the
messaging mechanism: arrivals flow to a coordinator node whose handler
counts them and broadcasts the release.

This is both a library feature (portable synchronization) and the
substrate of the barrier-cost ablation: how much of the applications'
performance rides on the hardware barrier?

The implementation is episode-safe: a node may re-arrive for episode
*k+1* before slow peers have processed their episode-*k* release, so
arrivals carry the episode number and the coordinator keeps one count per
episode.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from repro.network.message import VirtualNetwork
from repro.sim.process import Future

#: Handler path lengths: counting an arrival / processing a release.
ARRIVE_INSTRUCTIONS = 10
RELEASE_INSTRUCTIONS = 6

_barrier_ids = itertools.count()


class SoftwareBarrier:
    """Message-based barrier across all nodes of a machine."""

    def __init__(self, tempests: list, coordinator: int = 0, name: str = ""):
        self.barrier_id = next(_barrier_ids)
        self.name = name or f"swbar{self.barrier_id}"
        self.coordinator = coordinator
        self._tempests = tempests
        self._participants = len(tempests)
        # Coordinator-side: arrivals per episode.
        self._arrivals: dict[int, int] = defaultdict(int)
        # Participant-side: episode -> pending future, plus local episode.
        self._waiting: dict[int, Future] = {}
        self._episode: dict[int, int] = {t.node_id: 0 for t in tempests}
        self.episodes_completed = 0

        arrive = f"__swbar.{self.name}.arrive"
        release = f"__swbar.{self.name}.release"
        self._arrive_handler = arrive
        self._release_handler = release
        tempests[coordinator].register_handler(
            arrive, self._on_arrive, ARRIVE_INSTRUCTIONS
        )
        for tempest in tempests:
            tempest.register_handler(
                f"{release}.{tempest.node_id}",
                self._on_release,
                RELEASE_INSTRUCTIONS,
            )

    # ------------------------------------------------------------------
    def arrive(self, node_id: int) -> Future:
        """Send ``node_id``'s arrival; return the future its release
        resolves, like ``BarrierNetwork.arrive`` (wait with ``wait``)."""
        tempest = self._tempests[node_id]
        episode = self._episode[node_id]
        self._episode[node_id] = episode + 1
        released = Future(tempest.engine)
        self._waiting[node_id] = released
        tempest.send(
            self.coordinator,
            self._arrive_handler,
            vnet=VirtualNetwork.REQUEST,
            node=node_id,
            episode=episode,
        )
        return released

    # ------------------------------------------------------------------
    def _on_arrive(self, tempest, message) -> None:
        episode = message.payload["episode"]
        self._arrivals[episode] += 1
        if self._arrivals[episode] < self._participants:
            return
        del self._arrivals[episode]
        self.episodes_completed += 1
        for peer in self._tempests:
            tempest.charge(2)  # per-release send work
            tempest.send(
                peer.node_id,
                f"{self._release_handler}.{peer.node_id}",
                vnet=VirtualNetwork.RESPONSE,
                episode=episode,
            )

    def _on_release(self, tempest, message) -> None:
        released = self._waiting.pop(tempest.node_id)
        released.resolve(None)

    def __repr__(self) -> str:
        return (
            f"SoftwareBarrier({self.name}, coordinator={self.coordinator}, "
            f"episodes={self.episodes_completed})"
        )
