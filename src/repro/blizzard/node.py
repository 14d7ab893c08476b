"""A Blizzard node: software access control, CPU-run handlers, polling.

The node implements the same :class:`~repro.tempest.interface.Tempest`
backend surface as a Typhoon node, so user-level protocol libraries load
unchanged.  The differences are where the paper says they are:

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
from typing import TYPE_CHECKING, Any, Generator

from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.lane import build_access_lanes
from repro.memory.mirror import AccessMirror
from repro.memory.page_table import PageTable
from repro.memory.tags import Tag, TagStore
from repro.memory.tlb import Tlb
from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.engine import SimulationError
from repro.sim.process import Future
from repro.tempest.dispatch import DispatchError, DispatchRows
from repro.tempest.interface import Tempest
from repro.tempest.messaging import HandlerRegistry
from repro.tempest.threads import ComputationThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blizzard.system import BlizzardMachine


class SoftwareDispatcher:
    """The NP-shaped object protocols program against, minus the NP.

    Holds the (page mode, access type) -> handler table and the running
    handler's extra-charge accumulator; execution happens on the CPU in
    :meth:`BlizzardNode._service_one`.
    """

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


class BlizzardNode:
    """CPU + cache + TLB + software Tempest; handlers share the CPU."""

    def __init__(self, node_id: int, machine: "BlizzardMachine"):
        self.node_id = node_id
        self.machine = machine
        self.engine = machine.engine
        self.stats = machine.stats
        self.config = machine.config
        self.costs = machine.config.blizzard
        self.layout: AddressLayout = machine.layout
        self.heap = machine.heap
        self._prefix = f"node{node_id}"

        self.tags = TagStore(self.layout, node_id)
        self.page_table = PageTable(self.layout, self.tags, node_id)
        self.image = MemoryImage(self.layout, node_id)
        self.cache = Cache(
            machine.config.cache,
            machine.rng.stream(f"{self._prefix}.cache"),
            name=f"{self._prefix}.cache",
        )
        self.cpu_tlb = Tlb(machine.config.tlb, name=f"{self._prefix}.tlb")
        # Dense hit-probe mirror for the batched access lanes (see
        # repro.memory.mirror); kept coherent by the structures' own
        # mutation paths.
        self.mirror = AccessMirror(self.layout)
        self.cpu_tlb.mirror = self.mirror
        self.page_table.mirror = self.mirror
        self.cache.mirror = self.mirror
        self.thread = ComputationThread(self.engine, node_id)
        self.registry = HandlerRegistry(node_id)
        self.np = SoftwareDispatcher(self)
        self.tempest = Tempest(self)
        # Handler name -> (raw handler, duplicate check, cost): the cost
        # is the software dispatch sequence plus the handler's
        # instructions, all charged to this CPU.
        self._rows = DispatchRows(
            self.registry, self.costs.cycles_per_instruction,
            self.costs.software_dispatch_cycles)
        self.page_fault_handler = None

        self.written_blocks: set[int] = set()
        self._inbox: deque[Message] = deque()
        self._arrival: Future | None = None
        # Fault injection: inbox bound (None = unbounded, the default).
        self._recv_limit: int | None = None
        # Hot-path stat keys, precomputed so the per-reference path does
        # no string formatting.
        self._refs_key = f"{self._prefix}.cpu.refs"
        self._access_cycles_key = f"{self._prefix}.cpu.access_cycles"
        self._tlb_misses_key = f"{self._prefix}.cpu.tlb_misses"
        self._block_faults_key = f"{self._prefix}.cpu.block_faults"
        self._local_misses_key = f"{self._prefix}.cpu.local_misses"
        self._messages_sent_key = f"{self._prefix}.sw.messages_sent"
        self._handlers_run_key = f"{self._prefix}.sw.handlers_run"
        # Address arithmetic and container handles for the per-reference
        # path.  The TLB / page-table dicts are stable objects (cleared in
        # place, never reassigned), so caching them here is safe.
        self._page_shift = self.layout.page_size.bit_length() - 1
        self._page_mask = ~(self.layout.page_size - 1)
        self._block_mask = ~(self.layout.block_size - 1)
        self._hit_cycles = self.config.cache_hit_cycles
        self._tlb_entries = self.cpu_tlb._entries
        self._pt_entries = self.page_table._entries
        self._counters = machine.stats._counters
        self._image_read = self.image.read
        self._image_write = self.image.write
        # The batched access lanes (repro.memory.lane): a checked shared
        # hit is poll + inserted check + cache hit, a private reference
        # the bare hit, and queued messages must be polled first.
        costs = self.costs
        hit = self._hit_cycles
        self.run_read_prefix, self.run_plan_prefix = build_access_lanes(
            self, hit, costs.poll_cycles + costs.check_read_cycles + hit,
            costs.poll_cycles + costs.check_write_cycles + hit, self._inbox)
        machine.interconnect.attach(node_id, self._receive)

    # ------------------------------------------------------------------
    # TempestBackend surface
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes

    def send_message(self, message: Message) -> None:
        self._counters[self._messages_sent_key] += 1
        self.machine.interconnect.send(message)

    def invalidate_cpu_copy(self, block_addr: int) -> None:
        self.cache.invalidate(block_addr)
        self.written_blocks.discard(block_addr)

    def downgrade_cpu_copy(self, block_addr: int) -> None:
        self.cache.downgrade(block_addr)
        self.written_blocks.discard(block_addr)

    def shoot_down_page(self, vaddr: int) -> None:
        self.cpu_tlb.evict(self.layout.page_number(vaddr))

    def np_charge(self, cycles: int) -> None:
        self.np.charge(cycles)

    def set_page_fault_handler(self, handler) -> None:
        self.page_fault_handler = handler

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
        self.stats.incr(f"{self._prefix}.sw.nacks_sent")
        self.stats.incr("tempest.nacks_sent")
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
        if seen is None:
            fn(self.tempest, message)
        else:
            # The DeliveryGuard's body, inline (see DispatchRows).
            xid = message.xid
            if xid is None or not seen(message.src, xid):
                fn(self.tempest, message)
        monitor = self.machine.conformance
        if monitor is not None:
            monitor.after_handler(self.node_id, message)
        extra = self.np.take_charge()
        if extra:
            yield extra

    def _poll(self) -> Generator:
        """The inserted poll: drain whatever has arrived."""
        yield self.costs.poll_cycles
        while self._inbox:
            yield from self._service_one()

    def poll(self) -> Generator:
        """Explicit user-level poll (also used by barrier-wait loops)."""
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

    def spin_until(self, future: Future) -> Generator:
        """Public reply-wait loop (used by the machine's barrier wait)."""
        yield from self._spin_until(future)

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access_inline(self, addr: int, is_write: bool, value: Any = None):
        """Service a checked-hit access without touching the event queue.

        Blizzard's common case is a shared reference whose inserted poll
        finds an empty inbox, whose inserted tag check passes, and whose
        block hits in the hardware cache.  All of that is a fixed cycle
        charge (poll + check + hit) with no protocol activity, so when
        the engine can prove no event would fire inside that window the
        whole access commits inline.  Returns ``(result,)`` on success,
        or None (side-effect free) when :meth:`access` must run.

        The engine window is checked *first* (see
        ``TyphoonNode.access_inline``): rejection in lock-step phases must
        cost attribute reads, not probes the fallback then repeats.
        """
        engine = self.engine
        if engine._fifo or self._inbox:
            return None
        shared = addr >= SHARED_BASE
        if shared:
            costs = self.costs
            cycles = costs.poll_cycles + self._hit_cycles + (
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
        # The probes above cannot schedule events, so the window check
        # still holds and the clock can move directly.
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
        if shared:
            yield from self._poll()
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
                    counters[self._block_faults_key] += 1
                    yield from self._handle_block_fault(fault)
                    continue
            yield self.config.local_miss_cycles
            counters[self._local_misses_key] += 1
            if shared and self.tags.read_tag(addr) is Tag.READ_ONLY:
                state = LineState.SHARED
            else:
                state = LineState.EXCLUSIVE
            self.cache.insert(block, state)
            return self._complete(addr, is_write, value, start)

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

    def _handle_page_fault(self, addr: int, is_write: bool) -> Generator:
        self.stats.incr(f"{self._prefix}.cpu.page_faults")
        if self.page_fault_handler is None:
            raise SimulationError(
                f"page fault at {addr:#x} on node {self.node_id} "
                "with no user-level handler installed"
            )
        # The user-level page fault handler runs on the primary CPU,
        # charged at this backend's own resolved cost (Blizzard runs
        # used to bill Typhoon's NP instruction count here).
        yield self.machine.costs.page_fault
        extra = self.page_fault_handler(self.tempest, addr, is_write)
        if extra:
            yield extra

    def _complete(self, addr: int, is_write: bool, value: Any,
                  start: float) -> Any:
        if is_write:
            self._image_write(addr, value)
            if addr >= SHARED_BASE:
                self.written_blocks.add(addr & self._block_mask)
            result = None
        else:
            result = value = self._image_read(addr)
        self._counters[self._access_cycles_key] += self.engine.now - start
        if self.machine.history is not None:
            self.machine.history.record(
                self.node_id, addr, is_write, value, start, self.engine.now
            )
        return result

    def __repr__(self) -> str:
        return f"BlizzardNode({self.node_id})"
