"""Active-message handler registration (paper Section 2.1).

A Tempest message names a *handler* to run at the destination; the
remainder of the message is the handler's arguments.  On Typhoon the first
payload word is literally the handler PC; here handlers are named and
dispatched through a per-node :class:`HandlerRegistry`.

Each registration carries an **instruction count**: the cost the NP
charges per invocation (one cycle per instruction, Section 6).  The
paper's three measured path lengths live in
:class:`repro.sim.config.TyphoonCosts`; protocol authors supply counts for
their own handlers the same way they would by compiling them.

Handlers execute atomically with respect to other handlers (Section 2.1:
run-to-completion, non-preemptive), so protocol state needs no locks.

This module also hosts the machinery that makes messaging survive an
*unreliable* network (see :mod:`repro.network.faults`):

* :class:`ReliableTransport` — machine-level send-side retry with timeout
  and exponential backoff, NACK handling, and a ``Stats``-visible
  retry/NACK counter family (``tempest.retries``, ``tempest.nacks_*``,
  ``tempest.duplicates_dropped``).
* :class:`DeliveryGuard` — receiver-side idempotency: suppresses exact
  duplicate deliveries keyed on the transport's transaction ids, so
  protocol handlers observe at-most-once semantics even when the network
  duplicates packets or the sender retransmits spuriously.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.network.message import Message
from repro.sim.engine import Engine, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.faults import FaultSpec
    from repro.network.interconnect import Interconnect
    from repro.sim.stats import Stats


class HandlerError(RuntimeError):
    """Unknown handler name or duplicate registration."""


@dataclass(frozen=True)
class HandlerSpec:
    """One registered handler: the code and its charged instruction count."""

    name: str
    fn: Callable[..., Any]
    instructions: int

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise HandlerError(f"negative instruction count for {self.name}")


class HandlerRegistry:
    """Named handler table for one node (messages and block faults share it)."""

    def __init__(self, node: int = 0):
        self.node = node
        self._handlers: dict[str, HandlerSpec] = {}

    def register(self, name: str, fn: Callable[..., Any], instructions: int) -> HandlerSpec:
        if name in self._handlers:
            raise HandlerError(f"handler {name!r} already registered on node {self.node}")
        spec = HandlerSpec(name=name, fn=fn, instructions=instructions)
        self._handlers[name] = spec
        return spec

    def lookup(self, name: str) -> HandlerSpec:
        spec = self._handlers.get(name)
        if spec is None:
            raise HandlerError(f"no handler {name!r} on node {self.node}")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> list[str]:
        return sorted(self._handlers)

    def __len__(self) -> int:
        return len(self._handlers)

    def __repr__(self) -> str:
        return f"HandlerRegistry(node={self.node}, handlers={len(self)})"


class ReliableTransport:
    """Send-side reliability: track, time out, back off, retransmit.

    One instance per machine (installed by
    ``MachineBase.install_fault_plan``).  The interconnect calls
    :meth:`track` when a fault plan is active and a remote message is
    first injected; :meth:`on_receipt` when a tracked message is actually
    received; :meth:`on_nack` when an NI-level NACK comes back.  A
    retransmit timer runs per transaction; attempt *n*'s timeout is
    ``retry_timeout * retry_backoff**(n-1)`` cycles.

    ``pending`` maps transaction id -> in-flight message; an empty dict
    after a run is the "no message permanently lost" oracle the fault
    property tests assert.
    """

    def __init__(self, engine: Engine, interconnect: "Interconnect",
                 spec: "FaultSpec", stats: "Stats"):
        self.engine = engine
        self.interconnect = interconnect
        self.spec = spec
        self.stats = stats
        #: Transaction id -> message awaiting receipt.
        self.pending: dict[int, Message] = {}
        #: Transaction id -> the token of its live retransmit timer.
        self._timers: dict[int, object] = {}
        self._next_xid = itertools.count(1)
        #: Conformance flight recorder (set by the machine when the
        #: monitor is enabled); delivery-failure reports include its
        #: per-block event history.
        self.flight_recorder = None
        #: Details of the last permanent delivery failure, recorded
        #: before the error propagates (node, dst, handler, xid,
        #: attempts) so post-mortem inspection survives the raise.
        self.last_failure: dict | None = None

    # -- interconnect hooks ---------------------------------------------
    def track(self, message: Message) -> None:
        """Assign a transaction id and arm the retransmit timer."""
        xid = next(self._next_xid)
        message.xid = xid
        self.pending[xid] = message
        self.stats.incr("tempest.tracked_sends")
        self._arm(xid, message)

    def on_receipt(self, message: Message) -> None:
        """A tracked message reached its receiver: stop retrying it."""
        if self.pending.pop(message.xid, None) is not None:
            del self._timers[message.xid]

    def on_nack(self, nack: Message) -> None:
        """Receiver refused the packet: retransmit after ``nack_backoff``."""
        xid = nack.payload.get("xid")
        if xid not in self.pending:
            return  # stale NACK (original was retransmitted and received)
        self.stats.incr("tempest.nacks_received")
        self._schedule_timeout(xid, self.spec.nack_backoff)

    # -- timers ---------------------------------------------------------
    # A timer is never withdrawn: each arm draws a fresh token, and a
    # timer whose token is no longer its transaction's (received, or
    # superseded by a NACK's re-arm) fires as a no-op.
    def _arm(self, xid: int, message: Message) -> None:
        self._schedule_timeout(xid, (
            self.spec.retry_timeout
            * self.spec.retry_backoff ** (message.attempt - 1)
        ))

    def _schedule_timeout(self, xid: int, delay: float) -> None:
        token = self._timers[xid] = object()
        self.engine.schedule(delay, self._timeout, xid, token)

    def _timeout(self, xid: int, token: object) -> None:
        if self._timers.get(xid) is not token:
            return  # received, or superseded by a later arm
        message = self.pending[xid]
        if message.attempt >= self.spec.max_attempts:
            # Permanent failure: retire the transaction before raising
            # so no pending entry points at a transaction we just
            # declared dead.
            del self.pending[xid], self._timers[xid]
            self.last_failure = {
                "node": message.src,
                "dst": message.dst,
                "handler": message.handler,
                "xid": xid,
                "attempts": message.attempt,
            }
            detail = (
                f"message xid={xid} ({message.handler} "
                f"{message.src}->{message.dst}) undelivered after "
                f"{message.attempt} attempts"
            )
            if self.flight_recorder is not None:
                detail += "\n" + self.flight_recorder.report(
                    message.payload.get("addr")
                )
            raise SimulationError(detail)
        message.attempt += 1
        message.nacked = False
        self.stats.incr("tempest.retries")
        self._arm(xid, message)
        # Retransmits re-enter the network with xid already set, so the
        # interconnect does not re-track them; on_delivered is left alone
        # (the fire-once delivery path returns the send-queue credit for
        # whichever copy lands first).
        self.interconnect.send(message)

    @property
    def in_flight(self) -> int:
        return len(self.pending)

    def __repr__(self) -> str:
        return f"ReliableTransport(pending={len(self.pending)})"


class DeliveryGuard:
    """Receiver-side duplicate suppression keyed on transaction ids.

    Protocol handlers are not idempotent (a surplus ACK under-counts
    ``acks_outstanding``; a duplicate data grant double-resumes a
    thread), so each protocol wraps its handlers with a per-node guard:
    the first delivery of a transaction id runs the handler, later
    deliveries of the same id are dropped and counted.  Bounded memory:
    only the most recent ``capacity`` ids are remembered (FIFO eviction),
    which is far beyond any plausible duplicate lifetime.

    Messages without a transaction id (reliable network, or non-message
    arguments such as block faults) pass through untouched.

    The seen-set is keyed on ``(src, xid)``: transaction ids are
    allocated per *machine* by :class:`ReliableTransport`, so one
    machine's xid stream never collides with itself — but keying on the
    sender as well keeps the guard correct even for multi-transport
    topologies (or future per-node id allocation), where two senders can
    legitimately reuse the same xid value.
    """

    __slots__ = ("_seen", "_order", "_capacity", "_stats", "_key")

    def __init__(self, stats: "Stats | None" = None, key: str | None = None,
                 capacity: int = 4096):
        self._seen: set[tuple[int, int]] = set()
        self._order: deque[tuple[int, int]] = deque()
        self._capacity = capacity
        self._stats = stats
        self._key = key

    def seen(self, src: int, xid: int | None) -> bool:
        """Record ``(src, xid)``; True (and counted) if already recorded."""
        if xid is None:
            return False
        key = (src, xid)
        if key in self._seen:
            stats = self._stats
            if stats is not None:
                stats.incr("tempest.duplicates_dropped")
                if self._key is not None:
                    stats.incr(self._key)
            return True
        self._seen.add(key)
        self._order.append(key)
        if len(self._order) > self._capacity:
            self._seen.discard(self._order.popleft())
        return False

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a handler so duplicate deliveries become no-ops.

        The wrapper is tagged with ``__wrapped__`` (the raw handler) and
        ``__guard__`` (this guard), so the dispatch loops
        (:class:`~repro.tempest.dispatch.DispatchRows`) can call the
        duplicate check inline instead of paying a call frame per
        invocation — with identical semantics, because the inline check
        is exactly the body below.
        """
        def guarded(tempest: Any, message: Any) -> Any:
            xid = getattr(message, "xid", None)
            if xid is not None and self.seen(message.src, xid):
                return None
            return fn(tempest, message)
        guarded.__wrapped__ = fn
        guarded.__guard__ = self
        return guarded
