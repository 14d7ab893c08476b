"""DirNNB: the all-hardware directory-based cache-coherence baseline.

Dir\\ :sub:`N`\\ NB — a full-map, no-broadcast invalidation directory
protocol, the conventional hardware shared memory Section 6 compares
Typhoon/Stache against, with costs "loosely based on the DASH prototype"
(Table 2):

* local cache miss: 29 cycles flat when the home is local and the
  directory needs no remote action (the directory is integrated with the
  memory controller);
* remote cache miss: 23 cycles issue + (5 or 16 if a shared/exclusive
  line is replaced) + network and directory cost + 34 cycles to finish;
* remote cache invalidate: 8 cycles (+ replacement if it evicts);
* a directory operation occupies the home's controller for 16 cycles,
  + 11 if a block is received, + 5 per message sent, + 11 if a block is
  sent.

Everything is hardware: there are no page faults (memory is flat and
always mapped), no tags, and no NP — exactly the contrast the paper
draws.  Data values linearize in one authoritative memory image at access
completion time, which preserves coherence-visible value behaviour
without modelling hardware data paths.

Page placement is round-robin by default (the heap's allocation policy);
``MachineConfig.page_placement = "first_touch"`` switches to the
Stenstrom-et-al. improvement discussed in Section 6: a page's home
becomes the first node to touch it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.machine import MachineBase
from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.tlb import Tlb
from repro.network.message import (
    DATA_WORDS,
    REQUEST_WORDS,
    Message,
    VirtualNetwork,
)
from repro.protocols.directory import DirectoryState, HardwareDirectoryEntry
from repro.sim.config import MachineConfig
from repro.sim.engine import SimulationError
from repro.sim.process import Future
from repro.tempest.messaging import DeliveryGuard


class DirNNBMachine(MachineBase):
    """N nodes with hardware caches and full-map directories."""

    system_name = "dirnnb"
    #: Every hit touches the one shared image: the global window stays.
    cpu_lookahead = False

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        #: One authoritative data image; see the module docstring.
        self.shared_image = MemoryImage(self.layout)
        self.nodes: list[DirNNBNode] = [
            DirNNBNode(node_id, self) for node_id in range(config.nodes)
        ]
        self._first_touch_homes: dict[int, int] = {}
        self._maybe_auto_conformance()

    # ------------------------------------------------------------------
    def home_of(self, addr: int) -> int:
        """Home node of a block, honouring the page-placement policy."""
        if self.config.page_placement == "first_touch":
            page = self.layout.page_of(addr)
            home = self._first_touch_homes.get(page)
            if home is not None:
                return home
        return self.heap.home_of(addr)

    def record_first_touch(self, addr: int, node_id: int) -> None:
        if self.config.page_placement != "first_touch":
            return
        page = self.layout.page_of(addr)
        self._first_touch_homes.setdefault(page, node_id)


class DirectoryController:
    """The home node's hardware directory engine: a serial resource.

    Each operation occupies the controller for the Table 2 cost; its
    outgoing messages and grant notifications take effect when the
    occupancy ends.
    """

    def __init__(self, node: "DirNNBNode"):
        self.node = node
        self.machine: DirNNBMachine = node.machine
        self.engine = node.engine
        self.costs = node.machine.config.dirnnb
        self.stats = node.machine.stats
        self._prefix = f"node{node.node_id}.dir"
        # Hot-path stat keys and the raw counter dict, precomputed so a
        # directory op does no string formatting or method dispatch.
        self._counters = node.machine.stats._counters
        self._occupancy_key = f"{self._prefix}.occupancy_cycles"
        self._ops_key = f"{self._prefix}.ops"
        self._replays_key = f"{self._prefix}.replays"
        self._invalidations_key = f"{self._prefix}.invalidations"
        self._queue: deque[Message] = deque()
        self._busy = False
        #: Entries are always truthy (``get(block) or self.entry(block)``).
        self._entries: dict[int, HardwareDirectoryEntry] = {}
        # Effects accumulated by the handler currently executing.
        self._out_messages: list[Message] = []
        self._out_grants: list[tuple[int, dict]] = []
        self._block_received = False
        self._block_sent = False
        #: Directory message handler name -> operation(payload).
        self._ops = {
            "dir.get": self.handle_request, "dir.ack": self._handle_ack,
            "dir.wb_data": self._handle_wb_data,
            "dir.repl": self._handle_replacement_hint,
        }

    # ------------------------------------------------------------------
    def entry(self, block: int) -> HardwareDirectoryEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = self._entries[block] = HardwareDirectoryEntry()
            monitor = self.machine.conformance
            if monitor is not None:
                monitor.watch_entry(self.node.node_id, block, entry)
        return entry

    def entries(self) -> dict[int, HardwareDirectoryEntry]:
        """All materialized entries (diagnostics / invariant checks)."""
        return self._entries

    # ------------------------------------------------------------------
    # Serial dispatch
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if self._busy:
            self._queue.append(message)
        else:
            self._pump(message)

    def _pump(self, message: Message) -> None:
        """Start the operation ``message`` asks for (only while idle)."""
        op = self._ops.get(message.handler)
        if op is None:
            raise SimulationError(
                f"unknown directory message {message.handler}")
        self._busy = True
        self._out_messages = []
        self._out_grants = []
        self._block_received = False
        self._block_sent = False
        op(message.payload)
        monitor = self.machine.conformance
        if monitor is not None:
            monitor.after_handler(self.node.node_id, message)
        if (
            message.handler == "dir.get"
            and message.payload.get("local")
            and not self._out_messages
        ):
            # The home's own miss, satisfied by the integrated directory
            # within the memory access: the CPU's 29-cycle local-miss
            # charge already covers it.
            cost = 0
        else:
            cost = (
                self.costs.directory_op
                + (self.costs.directory_block_received
                   if self._block_received else 0)
                + self.costs.directory_per_message * len(self._out_messages)
                + (self.costs.directory_block_sent if self._block_sent else 0)
            )
        counters = self._counters
        counters[self._occupancy_key] += cost
        counters[self._ops_key] += 1
        # A plain push: DirNNB never enables lookahead, so the engine
        # has no fences to record.
        engine = self.engine
        engine.post(engine.now + cost, self._emit, self._out_messages,
                    self._out_grants)

    def _emit(self, messages: list[Message], grants: list[tuple[int, dict]]) -> None:
        for message in messages:
            self.machine.interconnect.send(message)
        for node_id, grant in grants:
            self.machine.nodes[node_id].deliver_grant(grant)
        self._busy = False
        if self._queue:
            self._pump(self._queue.popleft())

    # ------------------------------------------------------------------
    # Effect helpers (buffered until occupancy ends)
    # ------------------------------------------------------------------
    def _send(self, dst: int, handler: str, vnet: VirtualNetwork,
              size_words: int, **payload: Any) -> None:
        self._out_messages.append(
            Message(
                src=self.node.node_id,
                dst=dst,
                handler=handler,
                vnet=vnet,
                size_words=size_words,
                payload=payload,
            )
        )

    def _grant(self, block: int, entry: HardwareDirectoryEntry,
               requester: int, rw: bool) -> None:
        """Give ``requester`` the block; locally or via a data message."""
        grant = {"addr": block, "rw": rw}
        if requester == self.node.node_id:
            self._out_grants.append((requester, grant))
        else:
            self._block_sent = True
            self._send(
                requester,
                "dir.data",
                VirtualNetwork.RESPONSE,
                DATA_WORDS,
                **grant,
            )
        if entry.pending and not entry.state.is_transient:
            requester, want_write = entry.pending.pop(0)
            # A replayed request is another directory op's worth of work.
            self._counters[self._replays_key] += 1
            self._start_request(block, entry, requester, want_write)

    # ------------------------------------------------------------------
    # Protocol logic: one operation per directory message, on its payload
    # ------------------------------------------------------------------
    def handle_request(self, payload: dict) -> None:
        block = payload["addr"]
        requester = payload["requester"]
        want_write = payload["want_write"]
        monitor = self.machine.conformance
        if monitor is not None:
            monitor.note_request(block, requester)
        entry = self._entries.get(block) or self.entry(block)
        if entry.state.is_transient:
            entry.pending = [*entry.pending, (requester, want_write)]
            return
        self._start_request(block, entry, requester, want_write)

    def _start_request(self, block: int, entry: HardwareDirectoryEntry,
                       requester: int, want_write: bool) -> None:
        if not want_write:
            if entry.state is DirectoryState.EXCLUSIVE:
                entry.pending = [(requester, want_write), *entry.pending]
                entry.state = DirectoryState.PENDING_WRITEBACK
                self._send(
                    entry.owner, "dir.wb", VirtualNetwork.REQUEST,
                    REQUEST_WORDS, addr=block, home=self.node.node_id,
                    demote="ro",
                )
                return
            if entry.state is DirectoryState.HOME:
                # No copies exist: grant exclusive-clean (the MESI E state,
                # as in DASH) so a subsequent write by the reader hits.
                entry.state = DirectoryState.EXCLUSIVE
                entry.owner = requester
                self._grant(block, entry, requester, rw=True)
                return
            entry.sharer_bits |= 1 << requester
            entry.state = DirectoryState.SHARED
            self._grant(block, entry, requester, rw=False)
            return

        if entry.state is DirectoryState.EXCLUSIVE:
            if entry.owner == requester:
                self._grant(block, entry, requester, rw=True)
                return
            entry.pending = [(requester, want_write), *entry.pending]
            entry.state = DirectoryState.PENDING_WRITEBACK
            self._send(
                entry.owner, "dir.wb", VirtualNetwork.REQUEST,
                REQUEST_WORDS, addr=block, home=self.node.node_id,
                demote="inv",
            )
            return
        targets = entry.sharer_bits & ~(1 << requester)
        if targets:
            entry.pending = [(requester, want_write), *entry.pending]
            entry.state = DirectoryState.PENDING_INVALIDATE
            entry.acks_outstanding = targets.bit_count()
            # Ascending node order, lowest set bit first: ``nodes_in``
            # inlined, as a generator would add a call per sharer.
            while targets:
                low = targets & -targets
                targets ^= low
                sharer = low.bit_length() - 1
                self._counters[self._invalidations_key] += 1
                self._send(
                    sharer, "dir.inval", VirtualNetwork.REQUEST,
                    REQUEST_WORDS, addr=block, home=self.node.node_id,
                )
            return
        self._finish_write(block, entry, requester)

    def _finish_write(self, block: int, entry: HardwareDirectoryEntry,
                      requester: int) -> None:
        entry.sharer_bits = 0
        entry.acks_outstanding = 0
        entry.state = DirectoryState.EXCLUSIVE
        entry.owner = requester
        self._grant(block, entry, requester, rw=True)

    def _handle_ack(self, payload: dict) -> None:
        block = payload["addr"]
        entry = self._entries.get(block) or self.entry(block)
        entry.sharer_bits &= ~(1 << payload["sharer"])
        entry.acks_outstanding -= 1
        if entry.acks_outstanding < 0:
            raise SimulationError(f"surplus ack for {block:#x}")
        if entry.acks_outstanding:
            return
        if entry.state is not DirectoryState.PENDING_INVALIDATE:
            raise SimulationError(f"ack completion in state {entry.state}")
        requester, want_write = entry.pending.pop(0)
        if not want_write:
            raise SimulationError("invalidations pending for a read")
        entry.state = DirectoryState.HOME
        self._finish_write(block, entry, requester)

    def _handle_wb_data(self, payload: dict) -> None:
        self._block_received = True
        block = payload["addr"]
        entry = self._entries.get(block) or self.entry(block)
        if entry.state is not DirectoryState.PENDING_WRITEBACK:
            raise SimulationError(
                f"writeback data for {block:#x} in state {entry.state}"
            )
        requester, want_write = entry.pending.pop(0)
        entry.owner = None
        if want_write:
            entry.state = DirectoryState.HOME
            entry.sharer_bits = 0
            self._finish_write(block, entry, requester)
            return
        entry.sharer_bits = ((1 << payload["owner"] if payload["held"] else 0)
                             | 1 << requester)
        entry.state = DirectoryState.SHARED
        self._grant(block, entry, requester, rw=False)

    def _handle_replacement_hint(self, payload: dict) -> None:
        """A sharer dropped its copy (``dir.repl``, or the home's own
        victim: no operation runs then, and the next resets the flag)."""
        block = payload["addr"]
        sharer = payload["sharer"]
        entry = self._entries.get(block) or self.entry(block)
        if payload["dirty"]:
            self._block_received = True
            if entry.state is DirectoryState.EXCLUSIVE and entry.owner == sharer:
                entry.state = DirectoryState.HOME
                entry.owner = None
                entry.sharer_bits = 0
            # If transient, the in-flight writeback reply completes the
            # transaction; the data is already linearized in the image.
            return
        entry.sharer_bits &= ~(1 << sharer)
        if entry.state is DirectoryState.SHARED and not entry.sharer_bits:
            entry.state = DirectoryState.HOME


class DirNNBNode:
    """One DirNNB processing node: CPU, cache, TLB, directory controller."""

    def __init__(self, node_id: int, machine: DirNNBMachine):
        self.node_id = node_id
        self.machine = machine
        self.engine = machine.engine
        self.stats = machine.stats
        self.config = machine.config
        self.layout: AddressLayout = machine.layout
        self._prefix = f"node{node_id}"

        self.cache = Cache(
            machine.config.cache,
            machine.rng.stream(f"{self._prefix}.cache"),
            name=f"{self._prefix}.cache",
        )
        self.cpu_tlb = Tlb(machine.config.tlb, name=f"{self._prefix}.tlb")
        self.directory = DirectoryController(self)
        self._miss_grant: Future | None = None
        # Hot-path stat keys, precomputed so the per-reference and
        # per-message paths do no string formatting.
        self._refs_key = f"{self._prefix}.cpu.refs"
        self._access_cycles_key = f"{self._prefix}.cpu.access_cycles"
        self._tlb_misses_key = f"{self._prefix}.cpu.tlb_misses"
        self._local_misses_key = f"{self._prefix}.cpu.local_misses"
        self._remote_misses_key = f"{self._prefix}.cpu.remote_misses"
        self._coherence_invalidations_key = (
            f"{self._prefix}.cache.coherence_invalidations")
        self._protocol_replacements_key = (
            f"{self._prefix}.cache.protocol_replacements")
        # Container handles for the per-reference path.  Each is changed
        # in place, never reassigned (so the next miss sees a rehome).
        layout = self.layout
        self._page_shift = layout.page_size.bit_length() - 1
        self._page_mask = ~(layout.page_size - 1)
        self._block_mask = ~(layout.block_size - 1)
        self._block_low = layout.block_size - 1
        self._hit_cycles = self.config.cache_hit_cycles
        self._tlb_entries = self.cpu_tlb._entries
        self._cache_sets = self.cache._sets
        self._set_mask = self.cache._set_mask
        self._line_shift = self.cache._block_shift
        self._words_of = machine.shared_image._blocks
        self._page_home = machine.heap._page_home
        self._first_touch = machine.config.page_placement == "first_touch"
        self._counters = machine.stats._counters
        # Redelivery protection (see repro.network.faults): DirNNB's
        # dispatch bypasses the handler registry, so duplicate suppression
        # sits directly in the network sink.  Inert on a reliable network
        # (every xid is None).
        self._guard = DeliveryGuard(
            machine.stats, f"{self._prefix}.dir.duplicates_dropped"
        )
        directory = self.directory.receive
        #: Message handler name -> the sink's callable for it.
        self._sinks = {
            "dir.get": directory, "dir.ack": directory,
            "dir.wb_data": directory, "dir.repl": directory,
            "dir.data": self._receive_grant_message,
            "dir.inval": self._receive_invalidate,
            "dir.wb": self._receive_writeback_request,
        }
        machine.interconnect.attach(node_id, self._receive)

    # ------------------------------------------------------------------
    # Network sink: directory traffic and cache-side coherence requests
    # ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        if message.xid is not None and self._guard.seen(message.src, message.xid):
            return  # duplicate delivery of an already-processed message
        sink = self._sinks.get(message.handler)
        if sink is None:
            raise SimulationError(f"unknown DirNNB message {message.handler}")
        sink(message)

    def deliver_grant(self, grant: dict) -> None:
        """A grant arrived: fill the cache *now*, then wake the CPU.

        The fill must happen at delivery time, not when the CPU process
        resumes: an invalidation or writeback request for the same block
        can arrive in the same cycle (the directory emits the grant first,
        and channel latencies are equal, so the grant is never overtaken)
        and must observe the filled line.  The evicted victim, if any, is
        recorded for the CPU to charge and report.
        """
        if self._miss_grant is None:
            raise SimulationError(f"grant with no miss outstanding on {self}")
        state = LineState.EXCLUSIVE if grant["rw"] else LineState.SHARED
        grant["victim"] = self.cache.insert(grant["addr"], state)
        future, self._miss_grant = self._miss_grant, None
        future.resolve(grant)

    def _receive_grant_message(self, message: Message) -> None:
        self.deliver_grant(message.payload)

    def _receive_invalidate(self, message: Message) -> None:
        """Remote cache invalidate: Table 2 charges 8 cycles (+ repl).

        Hardware performs it without involving the CPU; the cost shows up
        as occupancy we simply absorb (the paper charges it on the
        invalidating side's protocol path via the directory's per-message
        cost; the 8-cycle local action does not block our CPU model).
        """
        block = message.payload["addr"]
        self.cache.invalidate(block)
        self._counters[self._coherence_invalidations_key] += 1
        engine = self.engine
        engine.post(engine.now + self.config.dirnnb.invalidate_base,
                    self._send_ack, message.payload["home"], block)

    def _send_ack(self, home: int, block: int) -> None:
        self.machine.interconnect.send(
            Message(
                src=self.node_id,
                dst=home,
                handler="dir.ack",
                vnet=VirtualNetwork.RESPONSE,
                size_words=REQUEST_WORDS,
                payload={"addr": block, "sharer": self.node_id},
            )
        )

    def _receive_writeback_request(self, message: Message) -> None:
        block = message.payload["addr"]
        line = self.cache.lookup(block)
        held = line is not None and line.state is LineState.EXCLUSIVE
        if held:
            if message.payload["demote"] == "ro":
                self.cache.downgrade(block)
            else:
                self.cache.invalidate(block)
        engine = self.engine
        engine.post(engine.now + self.config.dirnnb.invalidate_base,
                    self._send_wb_data, message.payload["home"], block, held)

    def _send_wb_data(self, home: int, block: int, held: bool) -> None:
        self.machine.interconnect.send(
            Message(
                src=self.node_id,
                dst=home,
                handler="dir.wb_data",
                vnet=VirtualNetwork.RESPONSE,
                size_words=DATA_WORDS,
                payload={"addr": block, "owner": self.node_id, "held": held},
            )
        )

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access_inline(self, addr: int, is_write: bool, value: Any = None):
        """Service a full TLB + cache hit without touching the event queue.

        Same contract as the Tempest backends' ``access_inline``
        (:mod:`repro.memory.lane`): side-effect-free probes, then a
        one-call commit when the access is a plain hardware hit the
        engine can advance over inline.  Returns ``(result,)`` on
        success or None when :meth:`access` must run.

        The engine window is checked *first*: rejection in lock-step
        phases must cost attribute reads, not probes the fallback then
        repeats.
        """
        engine = self.engine
        hit_cycles = self._hit_cycles
        target = engine.now + hit_cycles
        if target >= engine.edge:
            return None
        if (addr >> self._page_shift) not in self._tlb_entries:
            return None
        block = addr & self._block_mask
        line = self._cache_sets[block >> self._line_shift
                                & self._set_mask].get(block)
        if line is None or (is_write and line.state is LineState.SHARED):
            return None
        # Commit: identical effects to the generator path's hit branch.
        # The probes above cannot schedule events, so the window check
        # still holds and the clock can move directly.
        engine.now = target
        self.cpu_tlb.hits += 1
        self.cache.hits += 1
        self._counters[self._refs_key] += 1
        return (self._complete(addr, is_write, value, engine.now - hit_cycles),)

    def access(self, addr: int, is_write: bool, value: Any = None) -> Generator:
        """One CPU load or store (same surface as TyphoonNode.access).

        Probes the TLB, cache and image containers, counting as their
        methods do; a hit completes inline unless history records."""
        counters = self._counters
        counters[self._refs_key] += 1
        engine = self.engine
        start = engine.now
        cpu_tlb = self.cpu_tlb
        if addr >> self._page_shift in self._tlb_entries:
            cpu_tlb.hits += 1
        else:
            cpu_tlb.access(addr >> self._page_shift)  # counts, installs
            counters[self._tlb_misses_key] += 1
            yield self.config.tlb.miss_cycles

        block = addr & self._block_mask
        cache = self.cache
        line = self._cache_sets[block >> self._line_shift
                                & self._set_mask].get(block)
        if line is not None and not (is_write and line.state is LineState.SHARED):
            cache.hits += 1
            yield self._hit_cycles
            if self.machine.history is not None:
                return self._complete(addr, is_write, value, start)
            # _complete's image access and count, inline.
            counters[self._access_cycles_key] += engine.now - start
            if is_write:
                self._words_of.setdefault(block, {})[
                    addr & self._block_low] = value
                return None
            words = self._words_of.get(block)
            return 0 if words is None else words.get(addr & self._block_low, 0)
        cache.misses += 1
        if line is not None:
            cache.upgrades += 1  # a store to a SHARED line

        if addr < SHARED_BASE:
            yield self.config.local_miss_cycles
            cache.insert(block, LineState.EXCLUSIVE)
            return self._complete(addr, is_write, value, start)

        home = (None if self._first_touch
                else self._page_home.get(addr & self._page_mask))
        if home is None:
            # First-touch placement, or an unallocated page (the heap
            # raises): the machine's policy decides.
            self.machine.record_first_touch(addr, self.node_id)
            home = self.machine.home_of(addr)

        # Every shared miss is a directory transaction at the home — the
        # directory controller is the single serialization point, so its
        # decision and state update are atomic.  A home-local miss that
        # needs no remote action costs the flat 29 cycles of Table 2: the
        # integrated directory answers within the memory access, modelled
        # as a zero-occupancy controller operation.
        costs = self.config.dirnnb
        remote = home != self.node_id
        if remote:
            counters[self._remote_misses_key] += 1
            yield costs.remote_miss_issue
        else:
            counters[self._local_misses_key] += 1
            yield self.config.local_miss_cycles
        grant_future = Future(engine)
        if self._miss_grant is not None:
            raise SimulationError(f"second outstanding miss on {self}")
        self._miss_grant = grant_future
        self.machine.interconnect.send(
            Message(
                src=self.node_id,
                dst=home,
                handler="dir.get",
                vnet=VirtualNetwork.REQUEST,
                size_words=REQUEST_WORDS,
                payload={
                    "addr": block,
                    "requester": self.node_id,
                    "want_write": is_write,
                    "local": not remote,
                },
            )
        )
        grant = yield grant_future
        # The line itself was filled at grant delivery; only a shared
        # victim's replacement work remains to be charged here.
        victim = grant["victim"]
        if victim is not None and victim.block_addr >= SHARED_BASE:
            yield from self._handle_victim(victim)
        if remote:
            yield costs.remote_miss_finish
        return self._complete(addr, is_write, value, start)

    # ------------------------------------------------------------------
    def _handle_victim(self, victim) -> Generator:
        """Replacement work for an evicted shared line."""
        costs = self.config.dirnnb
        dirty = victim.state is LineState.EXCLUSIVE
        victim_addr = victim.block_addr
        self._counters[self._protocol_replacements_key] += 1
        home = (None if self._first_touch
                else self._page_home.get(victim_addr & self._page_mask))
        if home is None:
            home = self.machine.home_of(victim_addr)
        if home == self.node_id:
            # Local victim: the integrated directory notes the drop within
            # the miss; Table 2 charges the 5/16-cycle replacement penalty
            # only on the remote-miss path.
            self.directory._handle_replacement_hint(
                {"addr": victim_addr, "sharer": self.node_id, "dirty": dirty})
            return
        yield (
            costs.replacement_exclusive if dirty else costs.replacement_shared
        )
        self.machine.interconnect.send(
            Message(
                src=self.node_id,
                dst=home,
                handler="dir.repl",
                vnet=VirtualNetwork.RESPONSE,
                size_words=DATA_WORDS if dirty else REQUEST_WORDS,
                payload={
                    "addr": victim_addr,
                    "sharer": self.node_id,
                    "dirty": dirty,
                },
            )
        )

    def _complete(self, addr: int, is_write: bool, value: Any,
                  start: float) -> Any:
        """Perform the access on the shared image's word dict of the block
        (as MemoryImage does) and account it over ``[start, now]``."""
        block = addr & self._block_mask
        if is_write:
            self._words_of.setdefault(block, {})[
                addr & self._block_low] = value
            result = None
        else:
            words = self._words_of.get(block)
            result = value = (0 if words is None
                              else words.get(addr & self._block_low, 0))
        self._counters[self._access_cycles_key] += self.engine.now - start
        if self.machine.history is not None:
            self.machine.history.record(
                self.node_id, addr, is_write, value, start, self.engine.now
            )
        return result

    def __repr__(self) -> str:
        return f"DirNNBNode({self.node_id})"
