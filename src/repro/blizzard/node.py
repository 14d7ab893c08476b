"""A Blizzard node: software access control, CPU-run handlers, polling.

The node implements the same :class:`~repro.tempest.interface.Tempest`
backend surface as a Typhoon node, and runs the same CPU access path
(:class:`~repro.tempest.node.TempestNode`), so user-level protocol
libraries load unchanged.  The differences are where the paper says
they are:

* **Tag checks** are inserted code: each checked load/store pays the
  configured software check cost (0 for loads under the ECC trick).
* **No NP.**  Arriving messages queue until the CPU polls — which the
  inserted instrumentation does at every shared-memory reference — or
  until the CPU is spinning for a reply anyway.  Handler instruction
  counts are charged to the *computation thread*: handler work and
  computation cannot overlap, which is precisely the cost Typhoon's
  decoupled NP avoids (Section 5.1).
* **Fault handling** is a software dispatch through the same
  (page mode, access type) table, run inline on the faulting thread.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.engine import SimulationError
from repro.sim.process import Future
from repro.tempest.dispatch import DispatchError, DispatchRows
from repro.tempest.node import TempestNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blizzard.system import BlizzardMachine


class SoftwareDispatcher:
    """The NP-shaped object protocols program against, minus the NP.

    Holds the (page mode, access type) -> handler table and the running
    handler's extra-charge accumulator; execution happens on the CPU in
    :meth:`BlizzardNode._service_one`.
    """

    #: No events of its own: handlers run on the CPU (see
    #: HandlerDispatcher.due).
    due = float("inf")

    def __init__(self, node: "BlizzardNode"):
        self.node = node
        self._fault_dispatch: dict[tuple[int, bool], str] = {}
        self.pending_charge = 0

    def set_fault_handler(self, mode: int, is_write: bool, handler: str) -> None:
        self._fault_dispatch[(mode, is_write)] = handler

    def fault_handler_for(self, mode: int, is_write: bool) -> str:
        handler = self._fault_dispatch.get((mode, is_write))
        if handler is None:
            raise DispatchError(
                f"no fault handler for mode={mode} is_write={is_write} "
                f"on node {self.node.node_id}"
            )
        return handler

    def charge(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError("cannot charge negative cycles")
        self.pending_charge += cycles

    def take_charge(self) -> int:
        charge, self.pending_charge = self.pending_charge, 0
        return charge


class BlizzardNode(TempestNode):
    """CPU + cache + TLB + software Tempest; handlers share the CPU."""

    def __init__(self, node_id: int, machine: "BlizzardMachine"):
        self.costs = costs = machine.config.blizzard
        self._inbox: deque[Message] = deque()
        # A checked shared reference is poll + inserted check + hit, and
        # queued messages must be polled first.
        super().__init__(node_id, machine,
                         check_read_cycles=costs.check_read_cycles,
                         check_write_cycles=costs.check_write_cycles,
                         poll_cycles=costs.poll_cycles, inbox=self._inbox)
        # Handler name -> (raw handler, duplicate check, cost): the cost
        # is the software dispatch sequence plus the handler's
        # instructions, all charged to this CPU.
        self._rows = DispatchRows(
            self.registry, costs.cycles_per_instruction,
            costs.software_dispatch_cycles)
        self._arrival: Future | None = None
        # Fault injection: inbox bound (None = unbounded, the default).
        self._recv_limit: int | None = None
        self._messages_sent_key = f"{self._prefix}.sw.messages_sent"
        self._handlers_run_key = f"{self._prefix}.sw.handlers_run"
        self._nacks_key = f"{self._prefix}.sw.nacks_sent"
        self._connect(SoftwareDispatcher(self), self._receive)

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's inbox bound (no NP, so no stalls)."""
        self._recv_limit = plan.spec.recv_queue_limit

    # ------------------------------------------------------------------
    # Message arrival and CPU-side servicing
    # ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        # Bounded inbox (fault injection): refuse tracked requests beyond
        # the limit — responses must always sink (deadlock discipline),
        # and untracked messages have no retransmit path.
        if (self._recv_limit is not None and message.xid is not None
                and message.vnet is not VirtualNetwork.RESPONSE
                and len(self._inbox) >= self._recv_limit):
            self._nack(message)
            return
        self._inbox.append(message)
        if self._arrival is not None:
            arrival, self._arrival = self._arrival, None
            if not arrival.done:
                arrival.resolve(None)

    def _nack(self, message: Message) -> None:
        """Bounce an NI-level NACK; the sender's transport retransmits."""
        message.nacked = True
        counters = self._counters
        counters[self._nacks_key] += 1
        counters["tempest.nacks_sent"] += 1
        self.machine.interconnect.send(Message(
            src=self.node_id, dst=message.src, handler=NACK_HANDLER,
            vnet=VirtualNetwork.RESPONSE, size_words=2,
            payload={"xid": message.xid},
        ))

    def _pick_next_message(self) -> Message:
        """Response-network messages first (the deadlock discipline)."""
        for index, message in enumerate(self._inbox):
            if message.vnet is VirtualNetwork.RESPONSE:
                del self._inbox[index]
                return message
        return self._inbox.popleft()

    def _service_one(self) -> Generator:
        """Run one queued handler on the CPU, charging its full cost."""
        message = self._pick_next_message()
        fn, seen, cost = self._rows[message.handler]
        yield cost
        self._counters[self._handlers_run_key] += 1
        self._run(fn, seen, message)
        extra = self.np.take_charge()
        if extra:
            yield extra

    def _run(self, fn, seen, message: Message) -> None:
        """Run a handler row's raw ``fn`` on ``message``: the
        DeliveryGuard's body inline (see DispatchRows), then the
        conformance monitor."""
        if seen is None:
            fn(self.tempest, message)
        else:
            xid = message.xid
            if xid is None or not seen(message.src, xid):
                fn(self.tempest, message)
        monitor = self.machine.conformance
        if monitor is not None:
            monitor.after_handler(self.node_id, message)

    def drain(self) -> bool:
        """Run every queued handler now, uncharged and uncounted (the
        end-of-run drain: the clock has stopped).  True if any ran."""
        inbox = self._inbox
        ran = bool(inbox)
        while inbox:
            message = self._pick_next_message()
            fn, seen, _cost = self._rows[message.handler]
            self._run(fn, seen, message)
            self.np.take_charge()
        return ran

    def _poll(self) -> Generator:
        """The inserted poll: drain whatever has arrived."""
        yield self.costs.poll_cycles
        while self._inbox:
            yield from self._service_one()

    def poll(self) -> Generator:
        """Explicit user-level poll."""
        yield from self._poll()

    def _spin_until(self, future: Future) -> Generator:
        """Service messages until ``future`` resolves (reply wait loop).

        Wakes on whichever happens first: a message arrives (its handler
        may be the one that resumes us) or ``future`` resolves some other
        way (e.g. a hardware-barrier release).
        """
        while not future.done:
            if self._inbox:
                yield from self._service_one()
                continue
            arrival = Future(self.engine)
            self._arrival = arrival

            def wake(_value, a=arrival):
                if not a.done:
                    a.resolve(None)

            future.add_callback(wake)
            yield arrival
            self._arrival = None

    # ------------------------------------------------------------------
    # Block access faults: run on this CPU
    # ------------------------------------------------------------------
    def _handle_block_fault(self, fault) -> Generator:
        """Software fault dispatch: handler runs inline, then spin-wait.

        A fault carries no transaction id, so a guarded fault handler's
        guard would pass it through: the raw handler is called.
        """
        entry = self.page_table.lookup(fault.addr)
        handler_name = self.np.fault_handler_for(entry.mode, fault.is_write)
        fn, _seen, cost = self._rows[handler_name]
        suspension = self.thread.suspend()
        yield cost
        fn(self.tempest, fault)
        monitor = self.machine.conformance
        if monitor is not None:
            monitor.after_handler(self.node_id, fault)
        extra = self.np.take_charge()
        if extra:
            yield extra
        if not suspension.done:
            yield from self._spin_until(suspension)
