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

from typing import TYPE_CHECKING, Any, Generator

from repro.blizzard.node import BlizzardNode
from repro.memory.address import SHARED_BASE
from repro.memory.cache import LineState
from repro.memory.lane import build_access_lanes
from repro.memory.tags import Tag
from repro.network.message import Message
from repro.sim.config import DecoupledCosts
from repro.tempest.dispatch import HandlerDispatcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.decoupled.system import DecoupledMachine


class HandlerProcessor(HandlerDispatcher):
    """One node's second CPU: the shared dispatch loop, run in software.

    The software analogue of Typhoon's
    :class:`~repro.typhoon.np.NetworkProcessor`: serial,
    run-to-completion, same work priority (response network first, then
    captured faults, then requests — the Section 5.1 deadlock-avoidance
    discipline), same occupancy accounting.  What differs is the
    dispatch cost — ``poll_notice_cycles + dispatch_cycles`` of software
    loop per work item instead of hardware-assisted capture — and the
    absence of the NP's hardware plumbing (no NP TLB, no RTLB, no BAF
    bound, no finite send queues: sends go straight to the interconnect,
    as on any commodity node).  Fault injection's receive bound and
    stall windows apply as on the NP.
    """

    def __init__(self, node: "DecoupledNode", costs: DecoupledCosts):
        super().__init__(
            node, costs, "hp",
            message_overhead=costs.poll_notice_cycles + costs.dispatch_cycles,
            count_handlers=True,
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
