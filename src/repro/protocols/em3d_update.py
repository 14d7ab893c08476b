"""The custom delayed-update protocol for EM3D (paper Section 4).

EM3D's bipartite graph is updated under the owners-compute rule, so under
transparent shared memory every remote graph node is fetched, cached,
invalidated and re-fetched each iteration — at least four messages per
datum.  The custom protocol gets close to the minimum of one:

* Two new page types — a **custom home page** and a **custom stache
  page** — hold the graph nodes.
* The stache-like handlers keep count of how many remote graph nodes each
  processor has stached; the home handlers maintain a list of all
  outstanding copies.
* Blocks are allowed to become inconsistent within a step: the home keeps
  its ReadWrite tag even while remote read-only copies exist, so the
  owner's writes run at full hardware speed with no invalidations.
* At the end of a step the barrier is replaced by a flush function that
  traverses the copy list and sends **only the modified value field** of
  each graph node — not the whole cache block — with **no
  acknowledgments**.  Every processor knows how many remote graph nodes
  it has stached and simply counts arriving updates.
* The "graph nodes must not be updated early" constraint is the fuzzy
  barrier: updates are tagged with their step; an update that arrives
  for a step the receiver has not finished consuming is buffered in the
  handler and applied when the receiver advances.

The protocol extends Stache: ordinary shared data still uses the default
invalidation protocol; only registered custom regions get the delayed-
update treatment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.memory.allocator import SharedRegion
from repro.memory.tags import AccessFault, Tag
from repro.network.message import (
    DATA_WORDS,
    REQUEST_WORDS,
    Message,
    VirtualNetwork,
)
from repro.protocols.stache import PAGE_MODE_STACHE, StacheProtocol
from repro.sim.engine import SimulationError
from repro.sim.process import SYNC, Future
from repro.tempest.interface import Tempest

PAGE_MODE_CUSTOM_HOME = 3
PAGE_MODE_CUSTOM_STACHE = 4

#: Calibrated handler path lengths: an update send is a value copy plus a
#: message launch; an update receive is a few force-writes and a counter.
UPDATE_SEND_CYCLES = 10
UPDATE_RECV_INSTRUCTIONS = 10


class _CustomHomePage:
    """user_word of a custom home page."""

    __slots__ = ("kind", "copies", "value_addrs")

    def __init__(self, kind: str):
        self.kind = kind
        #: block addr -> set of nodes holding a copy ("outstanding copies").
        self.copies: dict[int, set[int]] = defaultdict(set)
        #: block addr -> the value-field addresses to ship on flush.
        self.value_addrs: dict[int, list[int]] = defaultdict(list)


#: EM3D's two phases.  A step-k update of kind E is safe to apply once the
#: receiver has finished compute-H(k-1) (its last reader of E values from
#: step k-1); a step-k update of kind H is safe once compute-E(k) is done.
KIND_E = "e"
KIND_H = "h"


class _NodeUpdateState:
    """Per-node receive-side state for the fuzzy barrier."""

    __slots__ = ("stached", "received", "deferred", "safe_step", "waiter",
                 "wait_key", "next_wait", "flush_next")

    def __init__(self) -> None:
        self.stached: dict[str, int] = defaultdict(int)   # kind -> copies held
        self.received: dict[tuple[str, int], int] = defaultdict(int)
        self.deferred: dict[tuple[str, int], list[dict]] = defaultdict(list)
        # Highest step per kind whose updates may be applied on arrival.
        # E(0) values are not read before compute-H(0), so step-0 E updates
        # are safe immediately; H(0) updates must wait for compute-E(0).
        self.safe_step: dict[str, int] = {KIND_E: 0, KIND_H: -1}
        self.waiter: Future | None = None
        self.wait_key: tuple[str, int] | None = None
        # Next step this node will wait on, per kind (receive side).
        self.next_wait: dict[str, int] = defaultdict(int)
        # Next step this node will flush, per kind (home side).  A copy
        # granted now already contains every value up to that step, so the
        # holder must not expect updates for earlier steps.
        self.flush_next: dict[str, int] = defaultdict(int)


class Em3dUpdateProtocol(StacheProtocol):
    """Stache plus the EM3D delayed-update extension (Typhoon/Update)."""

    name = "em3d-update"

    GET_CUSTOM = "em3d.get"
    DATA_CUSTOM = "em3d.data"
    UPDATE = "em3d.update"
    FAULT_CUSTOM_READ = "em3d.fault_read"
    FAULT_CUSTOM_WRITE = "em3d.fault_write"

    def __init__(self) -> None:
        super().__init__()
        self._custom_pages: dict[int, str] = {}  # page addr -> kind
        self._states: list[_NodeUpdateState] = []

    # ------------------------------------------------------------------
    def install(self, machine) -> None:
        super().install(machine)
        costs = machine.costs
        self._states = [_NodeUpdateState() for _ in machine.nodes]
        for node in machine.nodes:
            tempest = node.tempest
            tempest.register_handler(
                self.GET_CUSTOM, self._h_get_custom,
                costs.home_response,
            )
            tempest.register_handler(
                self.DATA_CUSTOM, self._h_data_custom,
                costs.data_arrival,
            )
            tempest.register_handler(
                self.UPDATE, self._h_update, UPDATE_RECV_INSTRUCTIONS
            )
            tempest.register_handler(
                self.FAULT_CUSTOM_READ, self._f_custom_read,
                costs.miss_request,
            )
            tempest.register_handler(
                self.FAULT_CUSTOM_WRITE, self._f_custom_write,
                costs.miss_request,
            )
            node.np.set_fault_handler(
                PAGE_MODE_CUSTOM_STACHE, False, self.FAULT_CUSTOM_READ
            )
            node.np.set_fault_handler(
                PAGE_MODE_CUSTOM_STACHE, True, self.FAULT_CUSTOM_WRITE
            )
            # Custom home pages keep ReadWrite tags forever, so no fault
            # handler is ever dispatched for PAGE_MODE_CUSTOM_HOME.

    # ------------------------------------------------------------------
    # Setup (application-visible)
    # ------------------------------------------------------------------
    def setup_custom_region(self, region: SharedRegion, kind: str) -> None:
        """Allocate graph-node pages under the custom protocol."""
        machine = self._machine()
        for page_addr in range(region.base, region.end,
                               machine.layout.page_size):
            home = machine.heap.home_of(page_addr)
            machine.nodes[home].tempest.map_page(
                page_addr,
                mode=PAGE_MODE_CUSTOM_HOME,
                home=home,
                initial_tag=Tag.READ_WRITE,
                user_word=_CustomHomePage(kind),
            )
            self._custom_pages[page_addr] = kind

    def register_value_word(self, addr: int) -> None:
        """Declare ``addr`` a graph-node value field (shipped on flush)."""
        machine = self._machine()
        page_addr = machine.layout.page_of(addr)
        kind = self._custom_pages.get(page_addr)
        if kind is None:
            raise SimulationError(f"{addr:#x} is not in a custom region")
        home = machine.heap.home_of(addr)
        page = machine.nodes[home].tempest.page_entry(addr)
        block = machine.layout.block_of(addr)
        page.user_word.value_addrs[block].append(addr)

    # ------------------------------------------------------------------
    # Page faults: custom regions get custom stache pages
    # ------------------------------------------------------------------
    def _page_fault(self, tempest: Tempest, addr: int, is_write: bool) -> int:
        machine = self._machine()
        page_addr = machine.layout.page_of(addr)
        kind = self._custom_pages.get(page_addr)
        if kind is None:
            return super()._page_fault(tempest, addr, is_write)
        tempest.map_page(
            page_addr,
            mode=PAGE_MODE_CUSTOM_STACHE,
            home=machine.heap.home_of(addr),
            initial_tag=Tag.INVALID,
            user_word=kind,
        )
        tempest.stats.incr("em3d.custom_pages_allocated")
        return 0

    # ------------------------------------------------------------------
    # Custom block faults and fetches
    # ------------------------------------------------------------------
    def _f_custom_read(self, tempest: Tempest, fault: AccessFault) -> None:
        entry = tempest.page_entry(fault.block_addr)
        tempest.set_busy(fault.block_addr)
        tempest.send(
            entry.home,
            self.GET_CUSTOM,
            vnet=VirtualNetwork.REQUEST,
            size_words=REQUEST_WORDS,
            addr=fault.block_addr,
            requester=tempest.node_id,
        )

    def _f_custom_write(self, tempest: Tempest, fault: AccessFault) -> None:
        raise SimulationError(
            f"remote write to custom graph page at {fault.addr:#x}: the "
            "EM3D protocol supports owner writes only (owners-compute rule)"
        )

    def _h_get_custom(self, tempest: Tempest, message: Message) -> None:
        """Home grants a copy and records it; its own tag stays ReadWrite."""
        block = message.payload["addr"]
        requester = message.payload["requester"]
        page = tempest.page_entry(block)
        if page is None or page.mode != PAGE_MODE_CUSTOM_HOME:
            raise SimulationError(f"custom get for non-custom block {block:#x}")
        home_page: _CustomHomePage = page.user_word
        home_page.copies[block].add(requester)
        costs = self._machine().costs
        tempest.charge(costs.block_copy)
        tempest.stats.incr("em3d.copies_granted")
        home_state = self._states[tempest.node_id]
        tempest.send(
            requester,
            self.DATA_CUSTOM,
            vnet=VirtualNetwork.RESPONSE,
            size_words=DATA_WORDS,
            addr=block,
            data=tempest.export_block(block),
            kind=home_page.kind,
            # The exported data already reflects every step the home has
            # flushed; the holder's first expected update is this one.
            valid_from=home_state.flush_next[home_page.kind],
        )

    def _h_data_custom(self, tempest: Tempest, message: Message) -> None:
        block = message.payload["addr"]
        kind = message.payload["kind"]
        costs = self._machine().costs
        tempest.charge(costs.block_copy)
        tempest.import_block(block, message.payload["data"])
        tempest.set_ro(block)
        state = self._states[tempest.node_id]
        state.stached[kind] += 1
        # Late join: the copy's data already reflects steps before
        # ``valid_from``, so credit those steps as received (the home will
        # not send them).
        for step in range(state.next_wait[kind], message.payload["valid_from"]):
            state.received[(kind, step)] += 1
        tempest.stats.incr("em3d.blocks_stached")
        tempest.resume()

    # ------------------------------------------------------------------
    # The flush + fuzzy barrier (replaces the step-end barrier)
    # ------------------------------------------------------------------
    def flush_and_wait(self, node_id: int, kind: str, step: int):
        """Generator run by the computation thread at the end of a step.

        Sends this node's modified ``kind`` values to every outstanding
        copy, then waits until all updates for the ``kind`` values this
        node has stached (same step) have arrived.  No acknowledgments.
        """
        if kind not in (KIND_E, KIND_H):
            raise SimulationError(f"unknown EM3D phase kind {kind!r}")
        # The flush sends before it first waits: a sync point.
        yield SYNC
        machine = self._machine()
        tempest = machine.nodes[node_id].tempest
        state = self._states[node_id]

        # Entering this call means the compute phase that produced these
        # values has finished, which also tells us which *incoming*
        # updates are now safe to apply (see the KIND_E/KIND_H note).
        if kind == KIND_H:
            self._advance_safe(tempest, state, KIND_E, step + 1)
        else:
            self._advance_safe(tempest, state, KIND_H, step)

        # --- flush: one value-only message per (block, copy holder) ----
        messages_sent = 0
        for page in tempest.pages_with_mode(PAGE_MODE_CUSTOM_HOME):
            home_page: _CustomHomePage = page.user_word
            if home_page.kind != kind:
                continue
            for block, holders in home_page.copies.items():
                addrs = home_page.value_addrs.get(block)
                if not addrs:
                    continue
                values = {addr: tempest.force_read(addr) for addr in addrs}
                for holder in sorted(holders):
                    messages_sent += 1
                    tempest.send(
                        holder,
                        self.UPDATE,
                        vnet=VirtualNetwork.REQUEST,
                        size_words=2 + len(values),
                        addr=block,
                        values=values,
                        kind=kind,
                        step=step,
                    )
        # Mark the flush done *before* any yield so concurrently arriving
        # get requests see a consistent flush step.
        state.flush_next[kind] = step + 1
        if messages_sent:
            tempest.stats.incr("em3d.updates_sent", messages_sent)
            yield messages_sent * UPDATE_SEND_CYCLES

        # --- fuzzy barrier: count arrivals for (kind, step) -------------
        expected = state.stached[kind]
        key = (kind, step)
        if state.received[key] < expected:
            if state.waiter is not None:
                raise SimulationError(f"node {node_id} already waiting")
            state.waiter = Future(tempest.engine)
            state.wait_key = key
            yield state.waiter
        del state.received[key]
        state.next_wait[kind] = step + 1

    def _advance_safe(self, tempest: Tempest, state: _NodeUpdateState,
                      kind: str, new_safe: int) -> None:
        """Raise the apply watermark for ``kind`` and drain deferrals."""
        while state.safe_step[kind] < new_safe:
            state.safe_step[kind] += 1
            key = (kind, state.safe_step[kind])
            for payload in state.deferred.pop(key, []):
                self._apply_update(tempest, state, key, payload)

    def _h_update(self, tempest: Tempest, message: Message) -> None:
        state = self._states[tempest.node_id]
        kind = message.payload["kind"]
        step = message.payload["step"]
        key = (kind, step)
        if step > state.safe_step[kind]:
            # Early update (sender raced ahead): buffer it; the handler
            # IS the fuzzy barrier.
            state.deferred[key].append(message.payload)
            tempest.stats.incr("em3d.updates_deferred")
            return
        self._apply_update(tempest, state, key, message.payload)
        self._maybe_release_waiter(tempest, state, key)

    def _apply_update(self, tempest: Tempest, state: _NodeUpdateState,
                      key: tuple[str, int], payload: dict) -> None:
        for addr, value in payload["values"].items():
            tempest.force_write(addr, value)
        state.received[key] += 1
        tempest.stats.incr("em3d.updates_received")

    def _maybe_release_waiter(self, tempest: Tempest, state: _NodeUpdateState,
                              key: tuple[str, int]) -> None:
        if state.waiter is None or key != state.wait_key:
            return
        kind, _step = key
        if state.received[key] >= state.stached[kind]:
            waiter, state.waiter = state.waiter, None
            state.wait_key = None
            waiter.resolve(None)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stached_count(self, node_id: int, kind: str) -> int:
        return self._states[node_id].stached[kind]

    def copy_holders(self, home_id: int, block: int) -> set[int]:
        machine = self._machine()
        page = machine.nodes[home_id].tempest.page_entry(block)
        if page is None or page.mode != PAGE_MODE_CUSTOM_HOME:
            return set()
        return set(page.user_word.copies.get(block, set()))
