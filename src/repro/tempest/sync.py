"""Synchronization primitives built from Tempest messages.

The paper's footnote 1 says the authors "are investigating adding a set of
synchronization primitives".  This module implements that extension the
way a Tempest user would have to today: each synchronization object lives
on a *home node* and is manipulated by active messages, whose handlers run
atomically on the home NP — so no additional hardware is required.

Two primitives are provided:

* :class:`TempestLock` — a queueing mutex.  ``acquire`` sends a request to
  the home; the home handler either grants immediately or appends the
  requester to a wait queue drained by ``release``.
* :class:`FetchAndOp` — an atomic read-modify-write cell (fetch-and-add
  by default), the building block for counters, tickets and fuzzy
  barriers.

Computation threads use both (``yield from lock.acquire(node_id)``);
they block through ``Tempest.wait`` and are exercised by the
custom-synchronization example.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable

from repro.network.message import VirtualNetwork
from repro.sim.process import Future

_sync_ids = itertools.count()

#: Handler path lengths, calibrated like the protocol handlers: a grant or
#: queue operation is a handful of loads/stores plus a send.
REQUEST_INSTRUCTIONS = 12
REPLY_INSTRUCTIONS = 8


class TempestLock:
    """A distributed queueing lock homed on one node.

    Construction must happen identically on every node (SPMD replicated
    initialization); the object's identity is its ``lock_id``.
    """

    def __init__(self, tempests: list, home: int, name: str = ""):
        self.lock_id = next(_sync_ids)
        self.home = home
        self.name = name or f"lock{self.lock_id}"
        self._tempests = tempests
        # Home-side state (only meaningful on the home node's copy).
        self._held = False
        self._queue: deque[int] = deque()
        self._grants: dict[int, Future] = {}

        acquire_handler = f"__lock.{self.name}.acquire"
        release_handler = f"__lock.{self.name}.release"
        grant_handler = f"__lock.{self.name}.grant"
        self._acquire_handler = acquire_handler
        self._release_handler = release_handler
        self._grant_handler = grant_handler

        home_tempest = tempests[home]
        home_tempest.register_handler(
            acquire_handler, self._on_acquire, REQUEST_INSTRUCTIONS
        )
        home_tempest.register_handler(
            release_handler, self._on_release, REQUEST_INSTRUCTIONS
        )
        for tempest in tempests:
            tempest.register_handler(
                f"{grant_handler}.{tempest.node_id}",
                self._on_grant,
                REPLY_INSTRUCTIONS,
            )

    # ------------------------------------------------------------------
    # Caller side (computation thread)
    # ------------------------------------------------------------------
    def acquire(self, node_id: int):
        """Generator: yields until the lock is granted to ``node_id``."""
        tempest = self._tempests[node_id]
        grant = Future(tempest.engine)
        self._grants[node_id] = grant
        tempest.send(
            self.home,
            self._acquire_handler,
            vnet=VirtualNetwork.REQUEST,
            requester=node_id,
        )
        yield from tempest.wait(grant)

    def release(self, node_id: int):
        """Generator: sends the release; returns without waiting."""
        tempest = self._tempests[node_id]
        tempest.send(
            self.home,
            self._release_handler,
            vnet=VirtualNetwork.REQUEST,
            requester=node_id,
        )
        yield 1  # one cycle to issue the store that launches the message

    # ------------------------------------------------------------------
    # Home-side handlers
    # ------------------------------------------------------------------
    def _on_acquire(self, tempest, message) -> None:
        requester = message.payload["requester"]
        if self._held:
            self._queue.append(requester)
            return
        self._held = True
        self._send_grant(tempest, requester)

    def _on_release(self, tempest, message) -> None:
        if not self._held:
            raise RuntimeError(f"release of unheld lock {self.name}")
        if self._queue:
            self._send_grant(tempest, self._queue.popleft())
        else:
            self._held = False

    def _send_grant(self, tempest, requester: int) -> None:
        tempest.send(
            requester,
            f"{self._grant_handler}.{requester}",
            vnet=VirtualNetwork.RESPONSE,
            requester=requester,
        )

    def _on_grant(self, tempest, message) -> None:
        grant = self._grants.pop(message.payload["requester"])
        grant.resolve(None)


class FetchAndOp:
    """An atomic fetch-and-op cell homed on one node."""

    def __init__(self, tempests: list, home: int, initial: int = 0,
                 op: Callable[[int, int], int] = lambda old, arg: old + arg,
                 name: str = ""):
        self.cell_id = next(_sync_ids)
        self.home = home
        self.name = name or f"cell{self.cell_id}"
        self._tempests = tempests
        self._value = initial
        self._op = op
        self._replies: dict[int, deque[Future]] = {
            t.node_id: deque() for t in tempests
        }

        self._apply_handler = f"__faop.{self.name}.apply"
        self._reply_handler = f"__faop.{self.name}.reply"
        tempests[home].register_handler(
            self._apply_handler, self._on_apply, REQUEST_INSTRUCTIONS
        )
        for tempest in tempests:
            tempest.register_handler(
                f"{self._reply_handler}.{tempest.node_id}",
                self._on_reply,
                REPLY_INSTRUCTIONS,
            )

    def apply(self, node_id: int, argument: int = 1):
        """Generator: atomically apply op(value, argument); yields old value."""
        tempest = self._tempests[node_id]
        reply = Future(tempest.engine)
        self._replies[node_id].append(reply)
        tempest.send(
            self.home,
            self._apply_handler,
            vnet=VirtualNetwork.REQUEST,
            requester=node_id,
            argument=argument,
        )
        return (yield from tempest.wait(reply))

    @property
    def value(self) -> int:
        """Home-side peek (diagnostics; not a simulated access)."""
        return self._value

    def _on_apply(self, tempest, message) -> None:
        old = self._value
        self._value = self._op(old, message.payload["argument"])
        tempest.send(
            message.payload["requester"],
            f"{self._reply_handler}.{message.payload['requester']}",
            vnet=VirtualNetwork.RESPONSE,
            requester=message.payload["requester"],
            old=old,
        )

    def _on_reply(self, tempest, message) -> None:
        reply = self._replies[message.payload["requester"]].popleft()
        reply.resolve(message.payload["old"])
