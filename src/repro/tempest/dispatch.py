"""The handler-dispatch loop of Section 5.1, shared by every handler processor.

A handler processor is a serial, run-to-completion processor.  Its
dispatch loop selects the next piece of work from three sources:

1. the **response** virtual network's receive queue (highest priority, so
   request handlers can never starve response handlers — the deadlock-
   avoidance discipline of Section 5.1),
2. the **captured-fault** queue (the BAF buffer on Typhoon's NP),
3. the **request** virtual network's receive queue (lowest priority).

Each dispatched handler is charged its registered instruction count (one
cycle per instruction, Section 6) plus its dispatch overhead; its
externally visible effects (sends, tag updates, ``resume``) take place
when that charge has elapsed.  Handlers may extend their own charge for
data-dependent work via ``Tempest.charge`` (bound to :meth:`charge`).

:class:`HandlerDispatcher` is that loop.  Typhoon's NP
(:class:`~repro.typhoon.np.NetworkProcessor`) and the decoupled design
point's second CPU (:class:`~repro.decoupled.node.HandlerProcessor`)
subclass it; what differs between them is data: the per-item dispatch
overhead, the NP-TLB and RTLB probes (NP only), the BAF bound and the
finite send queues (NP only), and a ``handlers_run`` counter (second CPU
only).

The loop is also the simulator's hottest code, so it is written for
speed without changing a single observable event:

* :class:`DispatchRows` resolves each handler name once, on first use,
  to the raw handler, its delivery guard's duplicate check (called
  inline), and its full cost with cycles-per-instruction folded in.
* Engine entries are anonymous and record no lookahead fence
  (:meth:`~repro.sim.engine.Engine.post`): handler work bounds only
  this node's CPU, whose hit path reads ``due``, the time of the
  processor's next event.
* When a handler finishes with more work queued, the next handler's
  charge window is checked against the engine's window
  (:attr:`Engine.edge <repro.sim.engine.Engine.edge>`): if no queued
  event can fire inside it, the entry that would be pushed is provably the
  next event fired, so the clock advances and the handler runs in the
  same loop, with no heap round trip and no deeper Python stack.  An
  extra charge from :meth:`charge` is advanced the same way.
* A message arriving at an idle processor with no stall windows active
  starts at once: in that state every queue is empty.

Stall windows, receive-queue bounds and the conformance monitor are
branches on one pointer test each, inside this single path.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Callable

from repro.memory.tags import AccessFault
from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tempest.messaging import HandlerRegistry

RESPONSE = VirtualNetwork.RESPONSE


class DispatchError(SimulationError):
    """No fault handler registered for a (mode, access) combination."""


class DispatchRows(dict):
    """Handler name -> ``(fn, seen, cost)``, resolved on first use.

    ``fn`` is the raw handler (a :class:`~repro.tempest.messaging.
    DeliveryGuard` wrapper is peeled through its ``__wrapped__`` and
    ``__guard__`` tags); ``seen`` is the guard's duplicate check, or None
    for an unguarded handler; ``cost`` is ``overhead + instructions *
    cycles_per_instruction``.  Resolving lazily keeps handlers registered
    after the first dispatch (software barriers, test fixtures) working.
    """

    def __init__(self, registry: "HandlerRegistry",
                 cycles_per_instruction: int, overhead: int = 0):
        super().__init__()
        self._registry = registry
        self._cpi = cycles_per_instruction
        self._overhead = overhead

    def __missing__(self, name: str) -> tuple:
        spec = self._registry.lookup(name)  # raises on unknown names
        fn = spec.fn
        guard = getattr(fn, "__guard__", None)
        seen = None
        if guard is not None:
            fn, seen = fn.__wrapped__, guard.seen
        row = self[name] = (
            fn, seen, self._overhead + spec.instructions * self._cpi)
        return row


class HandlerDispatcher:
    """One node's handler processor: queues, dispatch loop, accounting.

    ``unit`` names the stat family (``node<N>.<unit>.*``);
    ``message_overhead`` is charged on every dispatch and
    ``fault_overhead`` on top of it for a captured fault;
    ``count_handlers`` keeps a ``handlers_run`` counter.  Subclasses set
    the NP-only probes (``_np_tlb_access``, ``_rtlb_probe``) and bounds.
    """

    def __init__(self, node, costs, unit: str, message_overhead: int = 0,
                 fault_overhead: int = 0, count_handlers: bool = False):
        self.node = node
        self.costs = costs
        self.engine = node.engine
        self.stats = node.stats
        self._node_id = node.node_id
        self._machine = node.machine
        self._prefix = f"node{node.node_id}.{unit}"
        # Hot-path stat keys, precomputed so the per-message path does no
        # string formatting.
        self._received_key = f"{self._prefix}.messages_received"
        self._handler_cycles_key = f"{self._prefix}.handler_cycles"
        self._block_faults_key = f"{self._prefix}.block_faults"
        self._handlers_run_key = (f"{self._prefix}.handlers_run"
                                  if count_handlers else None)
        self._nacks_key = f"{self._prefix}.nacks_sent"
        self._baf_overflows_key = f"{self._prefix}.baf_overflows"
        self._stalls_key = f"{self._prefix}.stalls"
        self._counters = node.stats._counters
        self._rows = DispatchRows(node.registry,
                                  costs.cycles_per_instruction,
                                  message_overhead)
        self._fault_overhead = fault_overhead
        self._fault_observers = getattr(node.machine, "fault_observers", ())

        self._response_queue: deque[Message] = deque()
        self._request_queue: deque[Message] = deque()
        #: Captured faults (the BAF buffer on the NP).
        self._baf_buffer: deque[AccessFault] = deque()
        self._busy = False
        self._extra_charge = 0
        #: When this processor's next own event fires (inf: none
        #: pending).  Its events record no engine fence; the node's hit
        #: path bounds its lookahead by this instead.
        self.due = inf

        # (page mode, is_write) -> handler name.  Section 5.4: the page
        # mode, access type and tag select the fault handler PC; the tag
        # is implied (only faulting combinations dispatch), so the key is
        # (mode, is_write).
        self._fault_dispatch: dict[tuple[int, bool], str] = {}

        # NP hardware the subclass may supply: the NP TLB probed by
        # message handlers that name an address, and the reverse TLB
        # probed by fault handlers.
        self._np_tlb_access: Callable[[int], bool] | None = None
        self._np_tlb_miss = 0
        self._np_tlb_misses_key = f"{self._prefix}.np_tlb_misses"
        self._page_shift = node.layout.page_size.bit_length() - 1
        self._rtlb_probe: Callable[[int], int] | None = None

        # Fault injection (repro.network.faults): all inert until
        # install_faults is called with a live plan.
        self._fault_plan = None  # non-None only when stall windows are on
        self._recv_limit: int | None = None
        self._baf_limit: int | None = None
        self._stall_wake = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's receive bound and stall windows."""
        spec = plan.spec
        self._fault_plan = plan if spec.stall_every else None
        self._recv_limit = spec.recv_queue_limit

    def _nack(self, message: Message) -> None:
        """Refuse an arriving tracked request: bounce an NI-level NACK.

        The NACK travels on the response network (it must always sink)
        and is consumed by the sender's interconnect, never dispatched;
        ``message.nacked`` tells the delivery path that this delivery did
        not constitute receipt.
        """
        message.nacked = True
        counters = self._counters
        counters[self._nacks_key] += 1
        counters["tempest.nacks_sent"] += 1
        self._machine.interconnect.send(Message(
            src=self._node_id, dst=message.src, handler=NACK_HANDLER,
            vnet=RESPONSE, size_words=2,
            payload={"xid": message.xid},
        ))

    # ------------------------------------------------------------------
    # Work arrival
    # ------------------------------------------------------------------
    def enqueue_message(self, message: Message) -> None:
        """Receive-queue arrival (called by the interconnect)."""
        # Bounded receive queue (fault injection): only tracked requests
        # are refused — responses must always sink, and untracked
        # messages have no retransmit path.
        if (self._recv_limit is not None and message.vnet is not RESPONSE
                and message.xid is not None
                and len(self._request_queue) >= self._recv_limit):
            self._nack(message)
            return
        self._counters[self._received_key] += 1
        if self._busy or self._fault_plan is not None:
            if message.vnet is RESPONSE:
                self._response_queue.append(message)
            else:
                self._request_queue.append(message)
            if not self._busy:  # a busy processor drains it in _execute
                self._pump()
            return
        # Idle with no stall windows: every queue is empty, so this
        # message is the next work item.
        self._start_message(message)

    def enqueue_fault(self, fault: AccessFault) -> None:
        """Captured-fault arrival (the CPU faulted on a block access)."""
        self._counters[self._block_faults_key] += 1
        for observer in self._fault_observers:
            observer(fault)
        self._present_fault(fault)

    def _present_fault(self, fault: AccessFault) -> None:
        """Queue a fault, honouring the BAF capacity bound (NP only).

        On overflow the bus monitor re-presents the fault after a drain
        delay (the Section 4 overflow discussion: faults back up on the
        bus, they are never lost).  Counted once as a block fault at
        capture time, however many presentation attempts it takes.
        """
        if (self._baf_limit is not None
                and len(self._baf_buffer) >= self._baf_limit):
            self._counters[self._baf_overflows_key] += 1
            self.engine.schedule(
                self.costs.overflow_drain_cycles, self._present_fault, fault
            )
            return
        self._baf_buffer.append(fault)
        if not self._busy:  # a busy processor drains it in _execute
            self._pump()

    def set_fault_handler(self, mode: int, is_write: bool, handler: str) -> None:
        """Bind a block-access-fault handler for a page mode + access type."""
        self._fault_dispatch[(mode, is_write)] = handler

    def fault_handler_for(self, mode: int, is_write: bool) -> str:
        handler = self._fault_dispatch.get((mode, is_write))
        if handler is None:
            raise DispatchError(
                f"no fault handler for mode={mode} is_write={is_write} "
                f"on node {self._node_id}"
            )
        return handler

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._busy:
            return
        plan = self._fault_plan
        if plan is not None:
            # Periodic stall windows: the dispatch loop freezes; queued
            # work waits for the scheduled wake.  Nothing is lost.
            if self._stall_wake:
                return
            wake = plan.stall_until(self._node_id, self.engine.now)
            if wake is not None:
                self._stall_wake = True
                self._counters[self._stalls_key] += 1
                self.engine.schedule_at(wake, self._end_stall)
                return
        if self._response_queue:
            self._start_message(self._response_queue.popleft())
        elif self._baf_buffer:
            self._start_fault(self._baf_buffer.popleft())
        elif self._request_queue:
            self._start_message(self._request_queue.popleft())

    def _fault_row(self, fault: AccessFault) -> tuple:
        """``(fn, cost)`` for a captured fault, RTLB probe included.

        Fault handlers may be guard-wrapped, but an AccessFault carries
        no transaction id, so the guard would pass it straight through:
        the raw handler is called directly.
        """
        entry = self.node.page_table.lookup(fault.addr)
        if entry is None:
            raise DispatchError(
                f"block access fault for unmapped page {fault.addr:#x} "
                f"on node {self._node_id}"
            )
        # One dict probe; ``fault_handler_for`` runs only to raise.
        name = (self._fault_dispatch.get((entry.mode, fault.is_write))
                or self.fault_handler_for(entry.mode, fault.is_write))
        fn, _seen, cost = self._rows[name]
        cost += self._fault_overhead
        if self._rtlb_probe is not None:
            cost += self._rtlb_probe(fault.addr)
        return fn, cost

    def _start_message(self, message: Message) -> None:
        self._busy = True
        fn, seen, cost = self._rows[message.handler]
        # Handlers that touch a block's memory go through the NP TLB.
        tlb = self._np_tlb_access
        if tlb is not None:
            addr = message.payload.get("addr")
            if addr is not None and not tlb(addr >> self._page_shift):
                cost += self._np_tlb_miss
                self._counters[self._np_tlb_misses_key] += 1
        self._counters[self._handler_cycles_key] += cost
        engine = self.engine
        self.due = due = engine.now + cost
        engine.post(due, self._execute, fn, seen, message)

    def _start_fault(self, fault: AccessFault) -> None:
        self._busy = True
        fn, cost = self._fault_row(fault)
        self._counters[self._handler_cycles_key] += cost
        engine = self.engine
        self.due = due = engine.now + cost
        engine.post(due, self._execute, fn, None, fault)

    def _execute(self, fn, seen, argument) -> None:
        """Run a handler whose charge has elapsed, then the next ones.

        After each handler (and any extra charge it added) the loop
        dispatches the next work item in priority order — response
        network first, then captured faults, then requests — which is
        ``_finish`` + ``_pump`` with ``_busy`` left set across
        back-to-back handlers.  If no queued event can fire inside the
        next charge window (:attr:`Engine.edge
        <repro.sim.engine.Engine.edge>`), the entry that
        would be pushed is provably the next event fired, so the clock
        advances and the loop runs it; otherwise the entry is queued and
        control returns to the engine.  ``fn=None`` enters the loop at
        the dispatch step (see :meth:`_finish`).
        """
        engine = self.engine
        self.due = inf
        while True:
            if fn is not None:
                self._extra_charge = 0
                if self._handlers_run_key is not None:
                    self._counters[self._handlers_run_key] += 1
                if seen is None:
                    fn(self.node.tempest, argument)
                else:
                    # The DeliveryGuard's body: the first delivery of a
                    # transaction id runs the handler, later ones are
                    # dropped (and counted by the guard).
                    xid = argument.xid
                    if xid is None or not seen(argument.src, xid):
                        fn(self.node.tempest, argument)
                monitor = self._machine.conformance
                if monitor is not None:
                    monitor.after_handler(self._node_id, argument)
                extra = self._extra_charge
                if extra:
                    self._extra_charge = 0
                    self._counters[self._handler_cycles_key] += extra
                    target = engine.now + extra
                    if target >= engine.edge:
                        self.due = target
                        engine.post(target, self._finish)
                        return
                    engine.now = target
            if self._fault_plan is not None:
                # Stall windows are decided in _pump.
                self._busy = False
                self._pump()
                return
            if self._baf_buffer and not self._response_queue:
                argument = self._baf_buffer.popleft()
                fn, cost = self._fault_row(argument)
                seen = None
            else:
                work = self._response_queue or self._request_queue
                if not work:
                    self._busy = False
                    return
                argument = work.popleft()
                fn, seen, cost = self._rows[argument.handler]
                tlb = self._np_tlb_access
                if tlb is not None:
                    addr = argument.payload.get("addr")
                    if addr is not None and not tlb(addr >> self._page_shift):
                        cost += self._np_tlb_miss
                        self._counters[self._np_tlb_misses_key] += 1
            self._counters[self._handler_cycles_key] += cost
            target = engine.now + cost
            if target >= engine.edge:
                self.due = target
                engine.post(target, self._execute, fn, seen, argument)
                return
            engine.now = target

    def _finish(self) -> None:
        """An extra charge has elapsed: dispatch the next work item."""
        self._execute(None, None, None)

    def _end_stall(self) -> None:
        self._stall_wake = False
        self._pump()

    # ------------------------------------------------------------------
    def charge(self, cycles: int) -> None:
        """Extend the currently executing handler's occupancy."""
        if cycles < 0:
            raise SimulationError("cannot charge negative cycles")
        self._extra_charge += cycles

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queued_work(self) -> int:
        return (
            len(self._response_queue)
            + len(self._request_queue)
            + len(self._baf_buffer)
        )

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return (f"{type(self).__name__}(node={self._node_id}, {state}, "
                f"queued={self.queued_work})")
