"""One Typhoon node: CPU, caches, TLB, tagged memory, and NP (Figure 1).

The node implements the :class:`~repro.tempest.interface.TempestBackend`
protocol — it is the hardware under the Tempest facade.

The CPU access path models the MBus semantics of Section 5.4:

* a hardware-cache hit needs no NP intervention and completes in a cycle;
* a miss becomes a bus transaction the NP monitors.  If the block's tag
  permits the access, the memory controller responds (Table 2's 29-cycle
  local miss); a read of a ReadOnly block has the "shared" line asserted
  so the CPU's copy is not owned;
* otherwise the transaction is a **block access fault**: the NP inhibits
  memory, nacks the transaction, masks the CPU's bus request (the thread
  suspends), and captures the fault in the BAF buffer for user-level
  handling.  ``resume`` unmasks the request line and the access retries.

Accesses to unmapped shared pages take the coarse-grain path: the
computation thread runs the protocol's user-level page-fault handler
(Section 2.3) and retries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.lane import build_access_lanes
from repro.memory.mirror import AccessMirror
from repro.memory.page_table import PageTable
from repro.memory.tags import Tag, TagStore
from repro.memory.tlb import Tlb
from repro.sim.engine import SimulationError
from repro.tempest.interface import Tempest
from repro.tempest.messaging import HandlerRegistry
from repro.tempest.threads import ComputationThread
from repro.typhoon.np import NetworkProcessor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.system import TyphoonMachine

#: fn(tempest, addr, is_write) -> extra cycles or None
PageFaultHandler = Callable[[Tempest, int, bool], int | None]


class TyphoonNode:
    """CPU + L1 + TLB + NP + DRAM, assembled per Figure 1."""

    def __init__(self, node_id: int, machine: "TyphoonMachine"):
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
        # Dense hit-probe mirror for the batched access lanes: the CPU
        # TLB, page table, and cache keep it coherent from their own
        # mutation paths (all miss-path or coherence-path events).
        self.mirror = AccessMirror(self.layout)
        self.cpu_tlb.mirror = self.mirror
        self.page_table.mirror = self.mirror
        self.cache.mirror = self.mirror
        self.thread = ComputationThread(self.engine, node_id)
        self.registry = HandlerRegistry(node_id)
        self.np = NetworkProcessor(self, machine.config.typhoon)
        # Every send goes through the NP's send queues, which also count
        # it, and every handler charge is NP occupancy: binding the
        # backend surface straight to the NP keeps Tempest.send and
        # Tempest.charge one call away from it.
        self.send_message = self.np.send
        self.np_charge = self.np.charge
        self.tempest = Tempest(self)
        self.page_fault_handler: PageFaultHandler | None = None
        # Hot-path stat keys, precomputed so the per-reference path does
        # no string formatting.
        self._refs_key = f"{self._prefix}.cpu.refs"
        self._access_cycles_key = f"{self._prefix}.cpu.access_cycles"
        self._tlb_misses_key = f"{self._prefix}.cpu.tlb_misses"
        self._block_faults_key = f"{self._prefix}.cpu.block_faults"
        self._local_misses_key = f"{self._prefix}.cpu.local_misses"
        self._fills_killed_key = f"{self._prefix}.cpu.fills_killed"
        # Address arithmetic and container handles for the per-reference
        # path.  The TLB / page-table dicts are stable objects (cleared in
        # place, never reassigned), so caching them here is safe.
        layout = self.layout
        self._page_shift = layout.page_size.bit_length() - 1
        self._page_mask = ~(layout.page_size - 1)
        self._block_mask = ~(layout.block_size - 1)
        self._hit_cycles = self.config.cache_hit_cycles
        self._tlb_entries = self.cpu_tlb._entries
        self._pt_entries = self.page_table._entries
        self._counters = machine.stats._counters
        self._image_read = self.image.read
        self._image_write = self.image.write
        #: Blocks written since this node last gained them (the M-vs-E
        #: distinction an ownership bus provides); cleared on downgrade
        #: or invalidation.  Custom protocols use it (e.g. migratory
        #: detection probes).
        self.written_blocks: set[int] = set()
        # The batched access lanes (repro.memory.lane): every Typhoon
        # hit costs the bare cache hit, private or shared.
        self.run_read_prefix, self.run_plan_prefix = build_access_lanes(
            self, self._hit_cycles, self._hit_cycles, self._hit_cycles)

        machine.interconnect.attach(node_id, self.np.enqueue_message)

    # ------------------------------------------------------------------
    # TempestBackend surface
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes

    def invalidate_cpu_copy(self, block_addr: int) -> None:
        self.cache.invalidate(block_addr)
        self.written_blocks.discard(block_addr)

    def downgrade_cpu_copy(self, block_addr: int) -> None:
        self.cache.downgrade(block_addr)
        self.written_blocks.discard(block_addr)

    def shoot_down_page(self, vaddr: int) -> None:
        """TLB shoot-down after unmap/remap: CPU TLB and NP reverse TLB."""
        self.cpu_tlb.evict(self.layout.page_number(vaddr))
        self.np.rtlb.shoot_down(vaddr)

    def install_faults(self, plan) -> None:
        """Node-level fault injection lives in the NP (queues, stalls)."""
        self.np.install_faults(plan)

    # ------------------------------------------------------------------
    # Protocol wiring
    # ------------------------------------------------------------------
    def set_page_fault_handler(self, handler: PageFaultHandler) -> None:
        self.page_fault_handler = handler

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access_inline(self, addr: int, is_write: bool, value: Any = None):
        """Service a full TLB + cache hit without touching the event queue.

        The WWT direct-execution trick applied to CPython overhead: the
        common case — mapped page, TLB hit, cache hit, no pending event
        in the hit window — is detected with side-effect-free probes and
        then committed in one call: counters, data image, history, and
        the inline clock advance.  Returns ``(result,)`` on success, or
        None (having changed **nothing**) when the general :meth:`access`
        generator must run instead.

        The engine window is checked *first*: in lock-step multi-node
        phases another node almost always has an event inside the hit
        window, and that rejection must cost a couple of attribute reads,
        not a TLB/cache probe that :meth:`access` then repeats.
        """
        engine = self.engine
        if engine._fifo:
            return None
        hit_cycles = self._hit_cycles
        target = engine.now + hit_cycles
        queue = engine._queue
        if queue and queue[0][0] <= target:
            return None
        until = engine._until
        if until is not None and target > until:
            return None
        if (addr >> self._page_shift) not in self._tlb_entries:
            return None
        block = addr & self._block_mask
        line = self.cache.lookup(block)
        if line is None or (is_write and line.state is LineState.SHARED):
            return None
        shared = addr >= SHARED_BASE
        if shared and (addr & self._page_mask) not in self._pt_entries:
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
        counters[self._access_cycles_key] += hit_cycles
        if self.machine.history is not None:
            self.machine.history.record(
                self.node_id, addr, is_write, value,
                engine.now - hit_cycles, engine.now,
            )
        return (result,)

    def access(self, addr: int, is_write: bool, value: Any = None) -> Generator:
        """One CPU load or store; a generator the worker drives.

        Returns the loaded value (reads) or None (writes).
        """
        counters = self._counters
        counters[self._refs_key] += 1
        start = self.engine.now
        if not self.cpu_tlb.access(addr >> self._page_shift):
            counters[self._tlb_misses_key] += 1
            yield self.config.tlb.miss_cycles

        shared = addr >= SHARED_BASE
        block = addr & self._block_mask
        while True:
            if shared and (addr & self._page_mask) not in self._pt_entries:
                yield from self._handle_page_fault(addr, is_write)
                continue
            if self.cache.access(block, is_write):
                yield self._hit_cycles
                return self._complete(addr, is_write, value, start)
            # Miss: a bus transaction, monitored by the NP for shared pages.
            if shared:
                fault = self.tags.check(addr, is_write)
                if fault is not None:
                    counters[self._block_faults_key] += 1
                    suspension = self.thread.suspend()
                    self.np.enqueue_fault(fault)
                    yield suspension
                    continue  # retry the whole access
            yield self.config.local_miss_cycles
            counters[self._local_misses_key] += 1
            if shared and self.tags.check(addr, is_write) is not None:
                # The NP invalidated (or downgraded) the block while our
                # fill was on the bus: the transaction ends "relinquish
                # and retry" instead of installing a stale line.  Loop;
                # the retried access takes the fault path properly.
                counters[self._fills_killed_key] += 1
                continue
            if shared and self.tags.read_tag(addr) is Tag.READ_ONLY:
                state = LineState.SHARED  # NP asserts the "shared" line
            else:
                state = LineState.EXCLUSIVE
            self.cache.insert(block, state)
            # Victim writeback to local DRAM costs 0 (perfect write buffer,
            # Table 2); the image already holds every store, so no data
            # movement is needed either.
            return self._complete(addr, is_write, value, start)

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

    def _handle_page_fault(self, addr: int, is_write: bool) -> Generator:
        self.stats.incr(f"{self._prefix}.cpu.page_faults")
        if self.page_fault_handler is None:
            raise SimulationError(
                f"page fault at {addr:#x} on node {self.node_id} "
                "with no user-level handler installed"
            )
        # The user-level page fault handler runs on the primary CPU.
        yield self.machine.costs.page_fault
        extra = self.page_fault_handler(self.tempest, addr, is_write)
        if extra:
            yield extra

    def __repr__(self) -> str:
        return f"TyphoonNode({self.node_id})"
