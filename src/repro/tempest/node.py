"""The node base every Tempest backend shares: one CPU access path.

A Typhoon, Blizzard or decoupled node is the same commodity CPU — cache,
TLB, page table, fine-grain tags, memory image — under the
:class:`~repro.tempest.interface.Tempest` facade.  A checked load or
store is the CPU's own reference (Table 1), and the backends differ in
it only by data:

* what a reference pays for its inserted tag check (``check_read_cycles``
  / ``check_write_cycles``; 0 on Typhoon, whose tags are checked by
  hardware);
* whether queued messages must be polled first (``poll_cycles`` is not
  None: Blizzard, whose CPU also runs the handlers);
* where a block access fault goes (:meth:`_handle_block_fault`).

:class:`TempestNode` assembles the shared hardware, binds the hit path
(:func:`~repro.memory.lane.build_access_lanes`) and runs the one
``access`` generator.  Subclasses build their handler engine — the NP,
the software dispatcher, or the handler CPU — and hand it to
:meth:`_connect` with the node's message sink.

The ``access`` generator models the MBus semantics of Section 5.4:

* a cache hit completes after the hit cost, plus any inserted check;
* a miss whose tag permits the access is a local fill (Table 2's
  29-cycle miss); a read of a ReadOnly block is installed SHARED, so
  the CPU's copy is not owned;
* otherwise it is a **block access fault**, handed to the backend; the
  access retries once the handler resumes the thread;
* an access to an unmapped shared page runs the protocol's user-level
  page-fault handler on this CPU (Section 2.3) and retries.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.lane import build_access_lanes
from repro.memory.page_table import PageTable
from repro.memory.tags import AccessFault, Tag, TagStore
from repro.memory.tlb import Tlb
from repro.network.message import Message
from repro.sim.engine import SimulationError
from repro.sim.process import SYNC
from repro.tempest.interface import Tempest
from repro.tempest.messaging import HandlerRegistry
from repro.tempest.threads import ComputationThread

#: fn(tempest, addr, is_write) -> extra cycles or None
PageFaultHandler = Callable[[Tempest, int, bool], int | None]


_SHARED_LINE = LineState.SHARED


def _nonzero(*delays: int) -> tuple:
    return tuple(delay for delay in delays if delay)


class TempestNode:
    """CPU + L1 + TLB + tagged memory + page table, and the access path."""

    def __init__(self, node_id: int, machine, check_read_cycles: int = 0,
                 check_write_cycles: int = 0, poll_cycles: int | None = None,
                 inbox=()):
        self.node_id = node_id
        self.machine = machine
        self.engine = machine.engine
        self.stats = machine.stats
        self.config = machine.config
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
        self.thread = ComputationThread(self.engine, node_id)
        self.registry = HandlerRegistry(node_id)
        self.page_fault_handler: PageFaultHandler | None = None
        #: Callbacks to run when the CPU's current access completes
        #: (:meth:`Tempest.after_access`), then cleared.
        self.after_access: list[Callable[[], None]] = []
        #: Blocks written since this node last gained them (the M-vs-E
        #: distinction an ownership bus provides); cleared on downgrade
        #: or invalidation.  Custom protocols use it (e.g. migratory
        #: detection probes).
        self.written_blocks: set[int] = set()
        # Hot-path stat keys, precomputed so the per-reference path does
        # no string formatting.
        self._refs_key = f"{self._prefix}.cpu.refs"
        self._access_cycles_key = f"{self._prefix}.cpu.access_cycles"
        self._tlb_misses_key = f"{self._prefix}.cpu.tlb_misses"
        self._block_faults_key = f"{self._prefix}.cpu.block_faults"
        self._local_misses_key = f"{self._prefix}.cpu.local_misses"
        self._fills_killed_key = f"{self._prefix}.cpu.fills_killed"
        self._page_faults_key = f"{self._prefix}.cpu.page_faults"
        # Address arithmetic and container handles for the per-reference
        # path.  The TLB / page-table dicts are stable objects (cleared in
        # place, never reassigned), so caching them here is safe.
        layout = self.layout
        self._page_shift = layout.page_size.bit_length() - 1
        self._page_mask = ~(layout.page_size - 1)
        self._block_mask = ~(layout.block_size - 1)
        self._block_low = layout.block_size - 1
        self._hit_cycles = hit = self.config.cache_hit_cycles
        self._pt_entries = self.page_table._entries
        self._tlb_entries = self.cpu_tlb._entries
        self._cache_sets = self.cache._sets
        self._set_mask = self.cache._set_mask
        self._line_shift = self.cache._block_shift
        self._words_of = self.image._blocks
        self._counters = machine.stats._counters
        # The backend's access-path data: inserted check costs, and
        # whether a shared reference polls first.
        self._check_read_cycles = check_read_cycles
        self._check_write_cycles = check_write_cycles
        self._polls = poll_cycles is not None
        # The hit path (repro.memory.lane), given the delays ``access``
        # yields for a hit: a private reference the bare hit, a shared
        # one poll, inserted check and hit (zeros dropped).
        poll = poll_cycles or 0
        (self.access_inline, self.run_read_prefix, self.run_write_prefix,
         self.run_plan_prefix, self.charge_inline) = build_access_lanes(
            self, _nonzero(hit), _nonzero(poll, check_read_cycles, hit),
            _nonzero(poll, check_write_cycles, hit), inbox)

    def _connect(self, np, sink) -> None:
        """Finish assembly: ``np`` is the handler engine protocols program
        against (fault table, handler charges), ``sink`` the callable the
        interconnect delivers this node's messages to."""
        self.np = np
        self.np_charge = np.charge
        self.tempest = Tempest(self)
        self.machine.interconnect.attach(self.node_id, sink)

    # ------------------------------------------------------------------
    # TempestBackend surface
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes

    def send_message(self, message: Message) -> None:
        """Count a packet under ``_messages_sent_key`` and inject it."""
        self._counters[self._messages_sent_key] += 1
        self.machine.interconnect.send(message)

    def invalidate_cpu_copy(self, block_addr: int) -> None:
        self.cache.invalidate(block_addr)
        self.written_blocks.discard(block_addr)

    def downgrade_cpu_copy(self, block_addr: int) -> None:
        self.cache.downgrade(block_addr)
        self.written_blocks.discard(block_addr)

    def shoot_down_page(self, vaddr: int) -> None:
        """TLB shoot-down after unmap/remap."""
        self.cpu_tlb.evict(self.layout.page_number(vaddr))

    def set_page_fault_handler(self, handler: PageFaultHandler) -> None:
        self.page_fault_handler = handler

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool, value: Any = None) -> Generator:
        """One CPU load or store; a generator the worker drives.

        Returns the loaded value (reads) or None (writes).  A miss may
        enqueue a fault before its first delay, so the access first ends
        any lookahead run (a sync point, see repro.sim.process).  A hit
        the run had no room for then commits inline from the caught-up
        clock, where a new run may start.
        """
        if self.engine.ahead is not None:
            yield SYNC
            hit = self.access_inline(addr, is_write, value)
            if hit is not None:
                return hit[0]
        counters = self._counters
        counters[self._refs_key] += 1
        start = self.engine.now
        shared = addr >= SHARED_BASE
        if shared and self._polls:
            yield from self._poll()
        # The TLB, cache and image are probed through their containers,
        # as the lanes probe them (repro.memory.lane), with the same
        # hit/miss/upgrade counts their methods keep.
        cpu_tlb = self.cpu_tlb
        if addr >> self._page_shift in self._tlb_entries:
            cpu_tlb.hits += 1
        else:
            cpu_tlb.access(addr >> self._page_shift)  # counts, installs
            counters[self._tlb_misses_key] += 1
            yield self.config.tlb.miss_cycles

        block = addr & self._block_mask
        cache = self.cache
        cache_set = self._cache_sets[block >> self._line_shift
                                     & self._set_mask]
        while True:
            if shared and (addr & self._page_mask) not in self._pt_entries:
                yield from self._handle_page_fault(addr, is_write)
                continue
            if shared:
                # Inserted check code (Blizzard-S/E): loads may ride the
                # ECC trick; stores pay the lookup.
                check = (self._check_write_cycles if is_write
                         else self._check_read_cycles)
                if check:
                    yield check
            line = cache_set.get(block)
            hit = line is not None and not (is_write
                                            and line.state is _SHARED_LINE)
            if hit:
                cache.hits += 1
                break
            cache.misses += 1
            if line is not None:
                cache.upgrades += 1  # a store to a SHARED line
            # Miss: a bus transaction, checked against the block's tag
            # for shared pages.
            if shared:
                fault = self.tags.check(addr, is_write)
                if fault is not None:
                    counters[self._block_faults_key] += 1
                    yield from self._handle_block_fault(fault)
                    continue  # retry the whole access
            yield self.config.local_miss_cycles
            counters[self._local_misses_key] += 1
            if shared and self.tags.check(addr, is_write) is not None:
                # A handler invalidated (or downgraded) the block while
                # our fill was on the bus: the transaction ends
                # "relinquish and retry" instead of installing a stale
                # line.  Loop; the retried access takes the fault path.
                # (A Blizzard CPU runs no handler during its own fill.)
                counters[self._fills_killed_key] += 1
                continue
            if shared and self.tags.read_tag(addr) is Tag.READ_ONLY:
                state = LineState.SHARED  # the "shared" line is asserted
            else:
                state = LineState.EXCLUSIVE
            cache.insert(block, state)
            # Victim writeback to local DRAM costs 0 (perfect write buffer,
            # Table 2); the image already holds every store, so no data
            # movement is needed either.
            break
        # Perform the access on the image's word dict of the block (as
        # MemoryImage does).  MBus order: a hit is performed when the
        # cache grants it, before its hit cycles, so a store that hits
        # before a handler's downgrade in the same cycle is in the
        # exported data.
        words = self._words_of.get(block)
        if is_write:
            if words is None:
                words = self._words_of[block] = {}
            words[addr & self._block_low] = value
            if shared:
                self.written_blocks.add(block)
        else:
            value = 0 if words is None else words.get(addr & self._block_low, 0)
        if hit:
            yield self._hit_cycles
        return self._complete(addr, is_write, value, start)

    def _handle_block_fault(self, fault: AccessFault) -> Generator:
        """Hand a block access fault to the handler engine and wait.

        The thread suspends, the fault is enqueued to ``np`` (Typhoon's
        NP, or the decoupled handler CPU), and the handler's ``resume``
        lets the access retry.  Blizzard overrides this: its CPU runs
        the handler itself.
        """
        suspension = self.thread.suspend()
        self.np.enqueue_fault(fault)
        yield suspension

    def _complete(self, addr: int, is_write: bool, value: Any,
                  start: float) -> Any:
        """Account a performed access over ``[start, now]``."""
        self._counters[self._access_cycles_key] += self.engine.now - start
        if self.machine.history is not None:
            self.machine.history.record(
                self.node_id, addr, is_write, value, start, self.engine.now
            )
        if self.after_access:
            callbacks, self.after_access = self.after_access, []
            for callback in callbacks:
                callback()
        return None if is_write else value

    def _handle_page_fault(self, addr: int, is_write: bool) -> Generator:
        self._counters[self._page_faults_key] += 1
        if self.page_fault_handler is None:
            raise SimulationError(
                f"page fault at {addr:#x} on node {self.node_id} "
                "with no user-level handler installed"
            )
        # The user-level page fault handler runs on the primary CPU,
        # charged at this backend's own resolved cost.
        yield self.machine.costs.page_fault
        extra = self.page_fault_handler(self.tempest, addr, is_write)
        if extra:
            yield extra

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"
