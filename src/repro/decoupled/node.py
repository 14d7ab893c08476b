"""A decoupled node: software access control, handlers on a second CPU.

The node implements the same :class:`~repro.tempest.interface.Tempest`
backend surface as the other backends, so user-level protocol libraries
load unchanged.  It is the middle point of the paper's design space:

* **Tag checks** are inserted code, exactly as on Blizzard: each checked
  load/store pays the configured software check cost (0 for loads under
  the ECC trick).
* **No inserted polls.**  Unlike Blizzard, the compute CPU never polls
  the network — the *handler processor* (a second commodity CPU per
  node) watches it, running a software dispatch loop that polls an
  inbox and executes protocol handlers concurrently with computation.
  Handler instruction counts are charged to the handler processor's own
  timeline, so handler work overlaps compute work, as on Typhoon — but
  every dispatch pays the polling loop's notice latency plus a software
  dispatch sequence instead of the NP's hardware-assisted capture.
* **Fault handling** is Typhoon-shaped: a faulting access suspends the
  compute thread and enqueues the fault to the handler processor; the
  handler's ``resume`` restarts the thread.

:class:`DecoupledNode` subclasses :class:`~repro.blizzard.node.BlizzardNode`
for the shared software-Tempest state (tag store, page table, inserted
check costs) and overrides the paths where the second CPU changes the
story: message arrival, fault handling, and the per-reference cost (no
poll term, in both the inline hit path and the batched access lanes).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from repro.blizzard.node import BlizzardNode
from repro.memory.address import SHARED_BASE
from repro.memory.cache import LineState
from repro.memory.lane import build_access_lanes
from repro.memory.tags import AccessFault, Tag
from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.config import DecoupledCosts
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.decoupled.system import DecoupledMachine


class DispatchError(SimulationError):
    """No fault handler registered for a (mode, access) combination."""


class HandlerProcessor:
    """One node's second CPU: a software dispatch loop polling an inbox.

    The software analogue of Typhoon's
    :class:`~repro.typhoon.np.NetworkProcessor`: serial,
    run-to-completion, same work priority (response network first, then
    captured faults, then requests — the Section 5.1 deadlock-avoidance
    discipline), same occupancy accounting.  What differs is the
    dispatch cost — ``poll_notice_cycles + dispatch_cycles`` of software
    loop per work item instead of hardware-assisted capture — and the
    absence of the NP's hardware plumbing (no NP TLB, no RTLB, no
    finite send queues: sends go straight to the interconnect, as on
    any commodity node).
    """

    def __init__(self, node: "DecoupledNode", costs: DecoupledCosts):
        self.node = node
        self.costs = costs
        self.engine = node.engine
        self.stats = node.stats
        self._prefix = f"node{node.node_id}.hp"
        # Hot-path stat keys, precomputed so the per-message path does no
        # string formatting.
        self._received_key = f"{self._prefix}.messages_received"
        self._handler_cycles_key = f"{self._prefix}.handler_cycles"
        self._handlers_run_key = f"{self._prefix}.handlers_run"
        self._block_faults_key = f"{self._prefix}.block_faults"
        self._counters = node.stats._counters
        self._handlers = node.registry._handlers

        self._response_queue: deque[Message] = deque()
        self._request_queue: deque[Message] = deque()
        self._fault_queue: deque[AccessFault] = deque()
        self._busy = False
        self._extra_charge = 0
        # Per-dispatch software overhead, folded once.
        self._dispatch_cost = costs.poll_notice_cycles + costs.dispatch_cycles

        # (page mode, is_write) -> handler name, as on the NP.
        self._fault_dispatch: dict[tuple[int, bool], str] = {}

        # Fault injection: all inert until install_faults runs a live plan.
        self._node_id = node.node_id
        self._fault_plan = None  # non-None only when stall windows are on
        self._recv_limit: int | None = None
        self._stall_wake = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's inbox bound and stall windows.

        Send-queue and BAF bounds are NP hardware concepts and do not
        apply here: sends go straight to the interconnect, and the fault
        queue is ordinary memory shared with the compute CPU.
        """
        spec = plan.spec
        self._fault_plan = plan if spec.stall_every else None
        self._recv_limit = spec.recv_queue_limit

    def _nack(self, message: Message) -> None:
        """Refuse an arriving tracked request: bounce an NI-level NACK."""
        message.nacked = True
        self.stats.incr(f"{self._prefix}.nacks_sent")
        self.stats.incr("tempest.nacks_sent")
        self.node.machine.interconnect.send(Message(
            src=self._node_id, dst=message.src, handler=NACK_HANDLER,
            vnet=VirtualNetwork.RESPONSE, size_words=2,
            payload={"xid": message.xid},
        ))

    # ------------------------------------------------------------------
    # Work arrival
    # ------------------------------------------------------------------
    def enqueue_message(self, message: Message) -> None:
        """Receive-queue arrival (called by the interconnect)."""
        if message.vnet is VirtualNetwork.RESPONSE:
            self._response_queue.append(message)
        else:
            # Bounded receive queue (fault injection): only tracked
            # requests are refused — responses must always sink, and
            # untracked messages have no retransmit path.
            if (self._recv_limit is not None and message.xid is not None
                    and len(self._request_queue) >= self._recv_limit):
                self._nack(message)
                return
            self._request_queue.append(message)
        self._counters[self._received_key] += 1
        self._pump()

    def enqueue_fault(self, fault: AccessFault) -> None:
        """The compute CPU parked a faulting access's descriptor for us."""
        self._counters[self._block_faults_key] += 1
        for observer in getattr(self.node.machine, "fault_observers", ()):
            observer(fault)
        self._fault_queue.append(fault)
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
                self.stats.incr(f"{self._prefix}.stalls")
                self.engine.schedule_at(wake, self._end_stall)
                return
        if self._response_queue:
            self._start_message(self._response_queue.popleft())
        elif self._fault_queue:
            self._start_fault(self._fault_queue.popleft())
        elif self._request_queue:
            self._start_message(self._request_queue.popleft())

    def _start_message(self, message: Message) -> None:
        spec = self._handlers.get(message.handler)
        if spec is None:
            spec = self.node.registry.lookup(message.handler)  # raises
        cost = (
            self._dispatch_cost
            + spec.instructions * self.costs.cycles_per_instruction
        )
        self._begin(cost, spec.fn, message)

    def _start_fault(self, fault: AccessFault) -> None:
        entry = self.node.page_table.lookup(fault.addr)
        if entry is None:
            raise DispatchError(
                f"fault for unmapped page {fault.addr:#x} on node "
                f"{self._node_id}"
            )
        handler_name = self.fault_handler_for(entry.mode, fault.is_write)
        spec = self.node.registry.lookup(handler_name)
        cost = (
            self._dispatch_cost
            + spec.instructions * self.costs.cycles_per_instruction
        )
        self._begin(cost, spec.fn, fault)

    def _begin(self, cost: int, fn, argument) -> None:
        self._busy = True
        self._counters[self._handler_cycles_key] += cost
        self.engine.schedule(cost, self._execute, fn, argument)

    def _execute(self, fn, argument) -> None:
        self._extra_charge = 0
        self._counters[self._handlers_run_key] += 1
        fn(self.node.tempest, argument)
        monitor = self.node.machine.conformance
        if monitor is not None:
            monitor.after_handler(self._node_id, argument)
        extra = self._extra_charge
        self._extra_charge = 0
        if extra:
            self._counters[self._handler_cycles_key] += extra
            self.engine.schedule(extra, self._finish)
        else:
            self._finish()

    def _finish(self) -> None:
        self._busy = False
        self._pump()

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
            + len(self._fault_queue)
        )

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return (
            f"HandlerProcessor(node={self._node_id}, {state}, "
            f"queued={self.queued_work})"
        )


class DecoupledNode(BlizzardNode):
    """CPU + cache + TLB + software Tempest; handlers on a second CPU."""

    def __init__(self, node_id: int, machine: "DecoupledMachine"):
        super().__init__(node_id, machine)
        # Re-resolve everything the base class derived from the Blizzard
        # cost section: this backend bills from config.decoupled.
        self.costs = machine.config.decoupled
        costs = self.costs
        # Rebind the batched access lanes to this backend's costs: no
        # inserted poll — the handler processor watches the network — so
        # a checked shared hit is just inserted check + cache hit, and
        # no inbox holds messages back from the compute CPU.
        hit = self._hit_cycles
        self.run_read_prefix, self.run_plan_prefix = build_access_lanes(
            self, hit, costs.check_read_cycles + hit,
            costs.check_write_cycles + hit)
        self._fills_killed_key = f"{self._prefix}.cpu.fills_killed"
        self._messages_sent_key = f"{self._prefix}.hp.messages_sent"
        # The second CPU.  It replaces the base class's SoftwareDispatcher
        # as ``np`` — the NP-shaped object protocols program against —
        # and as the interconnect sink (``_receive`` below forwards, so
        # the sink the base class attached already routes here).
        self.hp = HandlerProcessor(self, costs)
        self.np = self.hp

    # ------------------------------------------------------------------
    # Message arrival: straight to the handler processor
    # ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        self.hp.enqueue_message(message)

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan to the handler processor."""
        self.hp.install_faults(plan)

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access_inline(self, addr: int, is_write: bool, value: Any = None):
        """Service a checked-hit access without touching the event queue.

        The decoupled common case is a shared reference whose inserted
        tag check passes and whose block hits in the hardware cache —
        cheaper than Blizzard's (no poll term), and safe on the same
        argument as Typhoon's: any pending handler-processor work has a
        scheduled engine event, so the engine-window check subsumes an
        inbox probe.  Returns ``(result,)`` on success, or None
        (side-effect free) when :meth:`access` must run.
        """
        engine = self.engine
        if engine._fifo:
            return None
        shared = addr >= SHARED_BASE
        if shared:
            costs = self.costs
            cycles = self._hit_cycles + (
                costs.check_write_cycles if is_write else costs.check_read_cycles
            )
        else:
            cycles = self._hit_cycles
        target = engine.now + cycles
        queue = engine._queue
        if queue and queue[0][0] <= target:
            return None
        until = engine._until
        if until is not None and target > until:
            return None
        if (addr >> self._page_shift) not in self._tlb_entries:
            return None
        if shared and (addr & self._page_mask) not in self._pt_entries:
            return None
        block = addr & self._block_mask
        line = self.cache.lookup(block)
        if line is None or (is_write and line.state is LineState.SHARED):
            return None
        # Commit: identical effects to the generator path's hit branch.
        engine.now = target
        self.cpu_tlb.hits += 1
        self.cache.hits += 1
        counters = self._counters
        counters[self._refs_key] += 1
        if is_write:
            self._image_write(addr, value)
            if shared:
                self.written_blocks.add(block)
            result = None
        else:
            result = value = self._image_read(addr)
        counters[self._access_cycles_key] += cycles
        if self.machine.history is not None:
            self.machine.history.record(
                self.node_id, addr, is_write, value,
                engine.now - cycles, engine.now,
            )
        return (result,)

    def access(self, addr: int, is_write: bool, value: Any = None) -> Generator:
        counters = self._counters
        counters[self._refs_key] += 1
        start = self.engine.now
        shared = addr >= SHARED_BASE
        if not self.cpu_tlb.access(addr >> self._page_shift):
            counters[self._tlb_misses_key] += 1
            yield self.config.tlb.miss_cycles

        block = addr & self._block_mask
        while True:
            if shared and (addr & self._page_mask) not in self._pt_entries:
                yield from self._handle_page_fault(addr, is_write)
                continue
            if shared:
                # Inserted check code (Blizzard-S/E): loads may ride the
                # ECC trick; stores pay the lookup.
                check = (self.costs.check_write_cycles if is_write
                         else self.costs.check_read_cycles)
                if check:
                    yield check
            if self.cache.access(block, is_write):
                yield self._hit_cycles
                return self._complete(addr, is_write, value, start)
            if shared:
                fault = self.tags.check(addr, is_write)
                if fault is not None:
                    # Typhoon-shaped fault handling: suspend, hand the
                    # descriptor to the handler processor, retry when its
                    # handler resumes us.  The handler runs concurrently
                    # with whatever other work this CPU cannot do while
                    # suspended — but other nodes' CPUs keep computing.
                    counters[self._block_faults_key] += 1
                    suspension = self.thread.suspend()
                    self.hp.enqueue_fault(fault)
                    yield suspension
                    continue  # retry the whole access
            yield self.config.local_miss_cycles
            counters[self._local_misses_key] += 1
            if shared and self.tags.check(addr, is_write) is not None:
                # The handler processor invalidated (or downgraded) the
                # block while our fill was in flight: relinquish and
                # retry rather than installing a stale line.
                counters[self._fills_killed_key] += 1
                continue
            if shared and self.tags.read_tag(addr) is Tag.READ_ONLY:
                state = LineState.SHARED
            else:
                state = LineState.EXCLUSIVE
            self.cache.insert(block, state)
            return self._complete(addr, is_write, value, start)

    def __repr__(self) -> str:
        return f"DecoupledNode({self.node_id})"
