"""IVY-style page-granularity distributed shared memory on Tempest.

Section 7 relates Stache to classic DSM: "Tempest's user-level memory
management interface is similar to Appel and Li's user-level primitives.
Both provide mechanisms to support distributed shared memory...  Stache
differs from distributed shared memory systems because it maintains
coherence on a much finer granularity."  And Section 2.4 motivates the
fine-grain tags: "The coarse granularity of their page-based mechanisms,
however, is a poor match for many applications."

This module makes that comparison executable: a sequentially consistent,
single-writer/multiple-reader DSM at **page** granularity (Li & Hudak's
IVY, fixed-distributed-manager variant), built from the *coarse-grain*
subset of Tempest — virtual-memory management, messages, and bulk
transfer.  Fine-grain tags are used only page-uniformly (every block of a
page carries the same tag), which is exactly the access control a
conventional MMU would give.

Protocol sketch (per page, manager = the page's home node):

* the manager tracks the page's **owner** (writable copy) and **copyset**
  (read-only copies) and serializes transactions with a busy flag and a
  request queue;
* a read fault asks the manager; the manager has the owner ship the whole
  page to the requester by **bulk transfer** (64 packets for 4 KB — the
  cost of coarse granularity is not hidden), demoting the owner to
  read-only;
* a write fault invalidates the copyset, recalls the page from the owner,
  and transfers ownership.

Grants travel the response network and recalls/invalidations the
request network, so a recall or invalidation can overtake the grant
that created the copy it chases.  Each grant therefore carries a
per-page version, recalls and invalidations carry the version of the
grant that made their target owner or member, and a node that has not
installed that version yet defers the message until its grant arrives
and the access the grant enables has completed.

Every handler is ordinary user-level Tempest code, so the Stache-vs-IVY
bench (`benchmarks/test_granularity.py`) compares two *policies* on
identical mechanisms — precisely the experiment the interface exists to
enable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.memory.allocator import SharedRegion
from repro.memory.tags import AccessFault, Tag
from repro.network.message import REQUEST_WORDS, Message, VirtualNetwork
from repro.sim.engine import SimulationError
from repro.tempest.interface import Tempest
from repro.tempest.messaging import DeliveryGuard
from repro.tempest.port import TempestPort

PAGE_MODE_IVY = 5

#: Handler path lengths (calibrated like the Stache handlers; page-grain
#: bookkeeping is a little heavier than per-block work).
REQUEST_INSTRUCTIONS = 20
MANAGER_INSTRUCTIONS = 40
GRANT_INSTRUCTIONS = 30
INVAL_INSTRUCTIONS = 25
#: Cycles to sweep a page's 128 block tags to one value (inserted code).
TAG_SWEEP_CYCLES = 32


@dataclass
class _PageState:
    """Manager-side record for one page."""

    owner: int
    copyset: set[int] = field(default_factory=set)
    busy: bool = False
    queue: deque = field(default_factory=deque)
    acks_outstanding: int = 0
    #: The in-service request: (requester, want_write).
    active: tuple[int, bool] | None = None
    #: Grants issued so far, and node -> the version of the grant that
    #: made it owner or copyset member.
    version: int = 0
    granted: dict[int, int] = field(default_factory=dict)


class IvyProtocol:
    """Page-granularity DSM: Li & Hudak's fixed distributed manager."""

    name = "ivy"

    GET = "ivy.get"              # requester -> manager
    RECALL = "ivy.recall"        # manager -> owner (demote &/or hand off)
    PAGE_SENT = "ivy.page_sent"  # owner -> manager (transfer launched+done)
    INVAL = "ivy.inval"          # manager -> copyset member
    ACK = "ivy.ack"              # copyset member -> manager
    GRANT = "ivy.grant"          # manager -> requester (enable the page)

    def __init__(self) -> None:
        self.machine: TempestPort | None = None
        # (manager node, page addr) -> _PageState
        self._pages: dict[tuple[int, int], _PageState] = {}
        # Requester side: (node, page addr) -> latest grant version
        # installed, and the recalls/invalidations that overtook it.
        self._installed: dict[tuple[int, int], int] = {}
        self._deferred: dict[tuple[int, int], list[Message]] = {}

    # ------------------------------------------------------------------
    def install(self, machine: TempestPort) -> None:
        self.machine = machine
        for node in machine.nodes:
            tempest = node.tempest
            # Redelivery protection (see repro.network.faults): IVY's
            # handlers are not idempotent (a duplicate ACK under-counts
            # acks_outstanding; a duplicate GRANT double-resumes), so a
            # per-node guard keyed on transport transaction ids drops
            # exact duplicates before they dispatch.
            guard = DeliveryGuard(
                machine.stats, f"node{node.node_id}.np.duplicates_dropped"
            )

            def register(name, fn, instructions,
                         _tempest=tempest, _guard=guard):
                _tempest.register_handler(name, _guard.wrap(fn), instructions)

            register(self.GET, self._h_get, MANAGER_INSTRUCTIONS)
            register(self.RECALL, self._h_recall, GRANT_INSTRUCTIONS)
            register(self.PAGE_SENT, self._h_page_sent, MANAGER_INSTRUCTIONS)
            register(self.INVAL, self._h_inval, INVAL_INSTRUCTIONS)
            register(self.ACK, self._h_ack, MANAGER_INSTRUCTIONS)
            register(self.GRANT, self._h_grant, GRANT_INSTRUCTIONS)
            register("ivy.fault_read", self._f_read, REQUEST_INSTRUCTIONS)
            register("ivy.fault_write", self._f_write, REQUEST_INSTRUCTIONS)
            node.np.set_fault_handler(PAGE_MODE_IVY, False, "ivy.fault_read")
            node.np.set_fault_handler(PAGE_MODE_IVY, True, "ivy.fault_write")
            node.set_page_fault_handler(self._page_fault)

    def setup_region(self, region: SharedRegion) -> None:
        """Create each page writable on its manager (initial owner)."""
        machine = self._machine()
        for page_addr in range(region.base, region.end,
                               machine.layout.page_size):
            manager = machine.heap.home_of(page_addr)
            machine.nodes[manager].tempest.map_page(
                page_addr, mode=PAGE_MODE_IVY, home=manager,
                initial_tag=Tag.READ_WRITE,
            )
            self._pages[(manager, page_addr)] = _PageState(owner=manager)

    def _machine(self) -> TempestPort:
        if self.machine is None:
            raise SimulationError("protocol not installed")
        return self.machine

    def _state(self, manager: int, page_addr: int) -> _PageState:
        state = self._pages.get((manager, page_addr))
        if state is None:
            raise SimulationError(
                f"no IVY page {page_addr:#x} managed by node {manager}"
            )
        return state

    # ------------------------------------------------------------------
    # Page-uniform tag control (what an MMU's per-page bits would do)
    # ------------------------------------------------------------------
    def _set_page_tag(self, tempest: Tempest, page_addr: int,
                      tag: Tag) -> None:
        for block in self._machine().layout.blocks_in_page(page_addr):
            if tag is Tag.READ_WRITE:
                tempest.set_rw(block)
            elif tag is Tag.READ_ONLY:
                tempest.set_ro(block)
            else:
                tempest.invalidate(block)
        tempest.charge(TAG_SWEEP_CYCLES)

    # ------------------------------------------------------------------
    # Faults (requester side)
    # ------------------------------------------------------------------
    def _page_fault(self, tempest: Tempest, addr: int, is_write: bool) -> int:
        machine = self._machine()
        page_addr = machine.layout.page_of(addr)
        tempest.map_page(
            page_addr, mode=PAGE_MODE_IVY,
            home=machine.heap.home_of(addr),
            initial_tag=Tag.INVALID,
        )
        return 0

    def _f_read(self, tempest: Tempest, fault: AccessFault) -> None:
        self._request(tempest, fault.block_addr, want_write=False)

    def _f_write(self, tempest: Tempest, fault: AccessFault) -> None:
        self._request(tempest, fault.block_addr, want_write=True)

    def _request(self, tempest: Tempest, addr: int, want_write: bool) -> None:
        machine = self._machine()
        page_addr = machine.layout.page_of(addr)
        entry = tempest.page_entry(page_addr)
        tempest.stats.incr("ivy.page_requests")
        tempest.send(
            entry.home, self.GET,
            vnet=VirtualNetwork.REQUEST, size_words=REQUEST_WORDS,
            addr=page_addr, requester=tempest.node_id,
            want_write=want_write,
        )

    # ------------------------------------------------------------------
    # Manager side
    # ------------------------------------------------------------------
    def _h_get(self, tempest: Tempest, message: Message) -> None:
        page_addr = message.payload["addr"]
        request = (message.payload["requester"],
                   message.payload["want_write"])
        state = self._state(tempest.node_id, page_addr)
        if state.busy:
            state.queue.append(request)
            return
        self._start(tempest, page_addr, state, request)

    def _start(self, tempest: Tempest, page_addr: int, state: _PageState,
               request: tuple[int, bool]) -> None:
        requester, want_write = request
        state.busy = True
        state.active = request
        if want_write:
            targets = state.copyset - {requester}
            state.acks_outstanding = len(targets)
            for member in sorted(targets):
                tempest.stats.incr("ivy.page_invalidations")
                tempest.send(member, self.INVAL,
                             vnet=VirtualNetwork.REQUEST,
                             size_words=REQUEST_WORDS,
                             addr=page_addr, manager=tempest.node_id,
                             version=state.granted.get(member, 0))
            if state.acks_outstanding == 0:
                self._recall_or_grant(tempest, page_addr, state)
            return
        self._recall_or_grant(tempest, page_addr, state)

    def _recall_or_grant(self, tempest: Tempest, page_addr: int,
                         state: _PageState) -> None:
        requester, want_write = state.active
        if state.owner == requester:
            # Upgrade in place: the requester already holds the data.
            self._finish(tempest, page_addr, state, transfer_done=True)
            return
        tempest.send(
            state.owner, self.RECALL,
            vnet=VirtualNetwork.REQUEST, size_words=REQUEST_WORDS,
            addr=page_addr, requester=requester,
            want_write=want_write, manager=tempest.node_id,
            version=state.granted.get(state.owner, 0),
        )

    def _h_ack(self, tempest: Tempest, message: Message) -> None:
        page_addr = message.payload["addr"]
        state = self._state(tempest.node_id, page_addr)
        state.copyset.discard(message.payload["member"])
        state.acks_outstanding -= 1
        if state.acks_outstanding == 0:
            self._recall_or_grant(tempest, page_addr, state)

    def _h_page_sent(self, tempest: Tempest, message: Message) -> None:
        """The owner finished shipping the page; grant it."""
        page_addr = message.payload["addr"]
        state = self._state(tempest.node_id, page_addr)
        self._finish(tempest, page_addr, state, transfer_done=True)

    def _finish(self, tempest: Tempest, page_addr: int, state: _PageState,
                transfer_done: bool) -> None:
        requester, want_write = state.active
        if want_write:
            state.copyset.discard(requester)
            old_owner = state.owner
            state.owner = requester
            if old_owner != requester:
                state.copyset.discard(old_owner)
        else:
            if requester != state.owner:
                state.copyset.add(requester)
        state.version += 1
        state.granted[requester] = state.version
        tempest.send(
            requester, self.GRANT,
            vnet=VirtualNetwork.RESPONSE, size_words=REQUEST_WORDS,
            addr=page_addr, want_write=want_write, version=state.version,
        )
        state.busy = False
        state.active = None
        if state.queue:
            self._start(tempest, page_addr, state, state.queue.popleft())

    # ------------------------------------------------------------------
    # Owner and copyset sides
    # ------------------------------------------------------------------
    def _overtook_grant(self, tempest: Tempest, message: Message) -> bool:
        """Defer ``message`` if it chases a grant not yet installed."""
        key = (tempest.node_id, message.payload["addr"])
        if message.payload["version"] <= self._installed.get(key, 0):
            return False
        self._deferred.setdefault(key, []).append(message)
        tempest.stats.incr("ivy.overtaken_grants")
        return True

    def _h_recall(self, tempest: Tempest, message: Message) -> None:
        """Ship the whole page to the requester, then tell the manager."""
        if self._overtook_grant(tempest, message):
            return
        page_addr = message.payload["addr"]
        requester = message.payload["requester"]
        want_write = message.payload["want_write"]
        manager = message.payload["manager"]
        tempest.stats.incr("ivy.page_transfers")
        self._set_page_tag(
            tempest, page_addr,
            Tag.INVALID if want_write else Tag.READ_ONLY,
        )
        transfer = tempest.bulk_transfer(
            requester, page_addr, page_addr,
            self._machine().layout.page_size,
        )

        def notify(_value):
            tempest.send(manager, self.PAGE_SENT,
                         vnet=VirtualNetwork.RESPONSE,
                         size_words=REQUEST_WORDS, addr=page_addr)

        transfer.add_callback(notify)

    def _h_inval(self, tempest: Tempest, message: Message) -> None:
        if self._overtook_grant(tempest, message):
            return
        page_addr = message.payload["addr"]
        if tempest.page_entry(page_addr) is not None:
            self._set_page_tag(tempest, page_addr, Tag.INVALID)
            tempest.stats.incr("ivy.pages_invalidated")
        tempest.send(
            message.payload["manager"], self.ACK,
            vnet=VirtualNetwork.RESPONSE, size_words=REQUEST_WORDS,
            addr=page_addr, member=tempest.node_id,
        )

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def _h_grant(self, tempest: Tempest, message: Message) -> None:
        page_addr = message.payload["addr"]
        self._set_page_tag(
            tempest, page_addr,
            Tag.READ_WRITE if message.payload["want_write"] else Tag.READ_ONLY,
        )
        tempest.stats.incr("ivy.pages_granted")
        tempest.resume()
        key = (tempest.node_id, page_addr)
        self._installed[key] = message.payload["version"]
        deferred = self._deferred.pop(key, None)
        if deferred:
            # Serving them now would take the page away before the
            # resumed access could use it: redeliver them locally once
            # that access has completed.
            tempest.after_access(
                lambda: self._redeliver(tempest, deferred))

    def _redeliver(self, tempest: Tempest, messages: list[Message]) -> None:
        for message in messages:
            tempest.send(tempest.node_id, message.handler, vnet=message.vnet,
                         size_words=message.size_words, **message.payload)
