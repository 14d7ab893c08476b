"""Stache: user-level transparent shared memory (paper Section 3).

Stache manages part of each node's local memory as a large,
fully-associative cache for remote data — page-grain allocation,
block-grain coherence — entirely in user-level software on the Tempest
interface.  The library consists of exactly what the paper lists: a page
fault handler, message handlers, block-access-fault handlers, and
shared-memory allocation support.

Protocol walk-through (mirrors the paper's narrative):

* A first access to a remote shared page takes a **page fault**; the
  handler allocates a stache page at that virtual address with all blocks
  tagged Invalid and restarts the access.
* The restarted access takes a **block access fault**; the fault handler
  tags the block Busy, sends a request to the home (found through the
  distributed mapping table, cached in the page entry), and terminates.
* At the home, the request handler performs the directory actions —
  downgrading or invalidating copies as needed; if invalidations are
  required, the handler for the final acknowledgment sends the data.
* The response handler at the requester force-writes the data, upgrades
  the tag, and resumes the suspended thread.
* Home-node faults "bypass sending requests and directly access directory
  data": the same directory routine runs with the home as requester.
* When no stache page can be allocated, the page fault handler replaces
  the FIFO-oldest stache page: modified blocks are sent back to their
  home, read-only copies are dropped silently (the home's sharer list may
  go stale; invalidations to departed sharers are simply acknowledged).

The software directory is the LimitLESS-like 64-bit-per-block entry of
:class:`repro.protocols.directory.SoftwareDirectoryEntry`.

Races resolve through two properties the substrate guarantees: handlers
are atomic per node, and channels are FIFO.  Replacement writebacks travel
on the response network, so a home that forwards a writeback request to a
just-replaced owner always receives the replacement data *before* the
owner's stale (data-less) writeback reply.
"""

from __future__ import annotations

from repro.memory.allocator import SharedRegion
from repro.memory.tags import AccessFault, Tag
from repro.network.message import (
    DATA_WORDS,
    REQUEST_WORDS,
    Message,
    VirtualNetwork,
)
from repro.protocols.directory import DirectoryState, SoftwareDirectoryEntry
from repro.sim.engine import SimulationError
from repro.tempest.interface import Tempest
from repro.tempest.messaging import DeliveryGuard
from repro.tempest.port import TempestPort

#: Page modes (the four-bit RTLB page-mode field; Section 5.4).
PAGE_MODE_HOME = 1
PAGE_MODE_STACHE = 2


class StacheProtocol:
    """The Stache runtime library, installable on any TempestPort."""

    name = "stache"

    #: Handler names (the "PCs" carried in messages).
    GET_RO = "stache.get_ro"
    GET_RW = "stache.get_rw"
    DATA = "stache.data"
    INVAL = "stache.inval"
    ACK = "stache.ack"
    WRITEBACK = "stache.writeback"
    WB_DATA = "stache.wb_data"
    REPL_DIRTY = "stache.repl_dirty"
    FAULT_READ = "stache.fault_read"
    FAULT_WRITE = "stache.fault_write"
    HOME_FAULT_READ = "stache.home_fault_read"
    HOME_FAULT_WRITE = "stache.home_fault_write"

    PREFETCH = "stache.prefetch"
    CHECKIN = "stache.checkin"
    MIGRATE_DATA = "stache.migrate_data"

    def __init__(self) -> None:
        self.machine: TempestPort | None = None
        # Per-node block the computation thread is currently faulted on
        # (None when running).  Lets the data-arrival handler tell a
        # demand fetch from a prefetch completion.
        self._pending_fault: dict[int, int | None] = {}
        # Pages whose home has moved: old home page addr -> new home node.
        self._migrated_pages: dict[int, int] = {}
        # Grant/invalidation race bookkeeping.  Every fetch carries a
        # per-(node, block) sequence number that the home echoes in the
        # data grant and in recalls of the ownership that grant created.
        # Grants travel the response network while invals/recalls travel
        # the request network, so an inval or recall can overtake the
        # grant it chases (queueing skew, drops and retransmits).  When
        # that happens the requester poisons exactly the overtaken
        # sequence: the late grant is discarded on arrival and the fetch
        # reissued under a new number.  Keying the poison by sequence —
        # not by block — is what makes this livelock-free: a recall for
        # a stale era (grant_seq older than the outstanding fetch) is
        # answered held=False without poisoning the replacement fetch.
        self._fetch_seq: dict[tuple[int, int], int] = {}
        self._poisoned_seq: dict[tuple[int, int], int] = {}
        # Home side: latest fetch sequence per (home, block, requester).
        # At most one un-granted fetch per key exists at a time, so this
        # is exactly the sequence a deferred grant must echo.  (Explicit
        # page migration does not carry it to the new home: post-
        # migration recalls simply lose the poisoning optimization.)
        self._req_seq: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Installation (what re-linking with the Stache library does)
    # ------------------------------------------------------------------
    def install(self, machine: TempestPort) -> None:
        self.machine = machine
        costs = machine.costs
        stats = machine.stats
        # Bound once, so a handler reads each in one step: the resolved
        # costs, the page mask and the shared counters.
        self._block_copy = costs.block_copy
        self._home_response = costs.home_response
        self._per_message = costs.per_message
        self._page_mask = ~(machine.layout.page_size - 1)
        self._counters = stats._counters
        for node in machine.nodes:
            tempest = node.tempest
            # Redelivery protection (see repro.network.faults): each
            # node's handlers run behind a guard keyed on transport
            # transaction ids, so duplicated or retransmitted messages
            # dispatch at most once.  On a reliable network xid is None
            # and the guard is a single attribute check.
            guard = DeliveryGuard(
                stats, f"node{node.node_id}.np.duplicates_dropped"
            )

            def register(name, fn, instructions,
                         _tempest=tempest, _guard=guard):
                _tempest.register_handler(name, _guard.wrap(fn), instructions)

            # Request handlers (home side).
            register(
                self.GET_RO, self._h_get, costs.home_response
            )
            register(
                self.GET_RW, self._h_get, costs.home_response
            )
            # Response handlers.
            register(
                self.DATA, self._h_data, costs.data_arrival
            )
            register(
                self.ACK, self._h_ack, costs.ack
            )
            register(
                self.WB_DATA, self._h_wb_data, costs.ack
            )
            # Copy-holder side handlers.
            register(
                self.INVAL, self._h_inval, costs.invalidate
            )
            register(
                self.WRITEBACK, self._h_writeback,
                costs.writeback,
            )
            register(
                self.REPL_DIRTY, self._h_repl_dirty,
                costs.writeback,
            )
            # Block-access-fault handlers, selected by (page mode, access).
            register(
                self.FAULT_READ, self._f_remote,
                costs.miss_request,
            )
            register(
                self.FAULT_WRITE, self._f_remote,
                costs.miss_request,
            )
            register(
                self.HOME_FAULT_READ, self._f_home,
                costs.home_response,
            )
            register(
                self.HOME_FAULT_WRITE, self._f_home,
                costs.home_response,
            )
            # Extensions: prefetch launch, check-in, page migration.
            register(
                self.PREFETCH, self._h_prefetch,
                costs.miss_request,
            )
            register(
                self.CHECKIN, self._h_checkin,
                costs.writeback,
            )
            register(
                "stache.migrate_begin", self._h_migrate_begin,
                costs.page_fault,
            )
            register(
                "stache.migrate_ready", self._h_migrate_ready,
                costs.miss_request,
            )
            node.np.set_fault_handler(PAGE_MODE_STACHE, False, self.FAULT_READ)
            node.np.set_fault_handler(PAGE_MODE_STACHE, True, self.FAULT_WRITE)
            node.np.set_fault_handler(PAGE_MODE_HOME, False, self.HOME_FAULT_READ)
            node.np.set_fault_handler(PAGE_MODE_HOME, True, self.HOME_FAULT_WRITE)
            node.set_page_fault_handler(self._page_fault)
            self._pending_fault[node.node_id] = None
        self._migrations = {}

    def setup_region(self, region: SharedRegion) -> None:
        """Create the home pages for a fresh shared allocation.

        The home node processor allocates per-block directory structures,
        maps the page, and tags every block ReadWrite (Section 3).  This
        is initialization, not timed execution.
        """
        machine = self._machine()
        for page_addr in range(region.base, region.end, machine.layout.page_size):
            home = machine.heap.home_of(page_addr)
            machine.nodes[home].tempest.map_page(
                page_addr,
                mode=PAGE_MODE_HOME,
                home=home,
                initial_tag=Tag.READ_WRITE,
                user_word={},  # block addr -> SoftwareDirectoryEntry
            )

    def _machine(self) -> TempestPort:
        if self.machine is None:
            raise SimulationError("protocol not installed")
        return self.machine

    # ------------------------------------------------------------------
    # Directory access
    # ------------------------------------------------------------------
    def _dir_entry(self, tempest: Tempest, block: int) -> SoftwareDirectoryEntry:
        page = tempest.page_entry(block)
        if page is None or page.mode != PAGE_MODE_HOME:
            raise SimulationError(
                f"directory lookup for {block:#x} on non-home node "
                f"{tempest.node_id}"
            )
        directory = page.user_word
        entry = directory.get(block)
        if entry is None:
            entry = directory[block] = SoftwareDirectoryEntry(tempest.num_nodes)
            monitor = self.machine.conformance
            if monitor is not None:
                monitor.watch_entry(tempest.node_id, block, entry)
        return entry

    # ------------------------------------------------------------------
    # Block access fault handlers (requester side).  A fault handler is
    # selected by (page mode, access), so ``fault.is_write`` says which
    # of the pair is running: one handler serves both, and unpacks the
    # fault itself.
    # ------------------------------------------------------------------
    def _f_remote(self, tempest: Tempest, fault: AccessFault) -> None:
        """Send the miss request to the home (14-instruction best case)."""
        block = fault.block_addr
        want_write = fault.is_write
        entry = tempest.page_entry(block)
        if tempest.read_tag(block) is Tag.BUSY:
            # A prefetch for this block is already in flight: don't send a
            # duplicate request, just note that the thread now waits on it
            # (the Busy tag exists exactly to mark this case, Section 5.4).
            self._pending_fault[tempest.node_id] = block
            self._counters["stache.prefetch_hits_in_flight"] += 1
            return
        tempest.set_busy(block)
        self._pending_fault[tempest.node_id] = block
        self._counters[
            "stache.rw_requests" if want_write else "stache.ro_requests"
        ] += 1
        seq = self._next_fetch_seq(tempest.node_id, block)
        tempest.send(
            entry.home,
            self.GET_RW if want_write else self.GET_RO,
            vnet=VirtualNetwork.REQUEST,
            size_words=REQUEST_WORDS,
            addr=block,
            requester=tempest.node_id,
            fetch_seq=seq,
        )

    def _next_fetch_seq(self, node_id: int, block: int) -> int:
        seq = self._fetch_seq.get((node_id, block), 0) + 1
        self._fetch_seq[(node_id, block)] = seq
        return seq

    def _f_home(self, tempest: Tempest, fault: AccessFault) -> None:
        """Home faults bypass requests and touch the directory directly
        (a page mapped as this node's home has not moved)."""
        block = fault.block_addr
        self._start_request(tempest, block, self._dir_entry(tempest, block),
                            tempest.node_id, fault.is_write)

    # ------------------------------------------------------------------
    # Home-side request handlers
    # ------------------------------------------------------------------
    def _h_get(self, tempest: Tempest, message: Message,
               want_write: bool | None = None) -> None:
        """GET_RO / GET_RW: the directory state machine, run atomically
        at the home on the message it unpacks.  A subclass may pass the
        access to grant as ``want_write``."""
        payload = message.payload
        block = payload["addr"]
        requester = payload["requester"]
        if want_write is None:
            want_write = message.handler == self.GET_RW
        fetch_seq = payload.get("fetch_seq")
        forward = self._migrated_pages.get(block & self._page_mask)
        if forward is not None and forward != tempest.node_id:
            # This page's home moved; bounce the request to the new home
            # (the reply will refresh the requester's cached home id).
            self._counters["stache.requests_forwarded"] += 1
            tempest.send(
                forward,
                self.GET_RW if want_write else self.GET_RO,
                vnet=VirtualNetwork.REQUEST,
                size_words=REQUEST_WORDS,
                addr=block,
                requester=requester,
                fetch_seq=fetch_seq,
            )
            return
        if requester != tempest.node_id and fetch_seq is not None:
            # At most one un-granted fetch per (block, requester) exists,
            # so the latest sequence is the one any grant must echo.
            self._req_seq[(tempest.node_id, block, requester)] = fetch_seq
        self._start_request(tempest, block, self._dir_entry(tempest, block),
                            requester, want_write)

    def _start_request(self, tempest: Tempest, block: int,
                       entry: SoftwareDirectoryEntry, requester: int,
                       want_write: bool) -> None:
        if entry.state.is_transient:
            entry.pending = [*entry.pending, (requester, want_write)]
            return
        if not want_write:
            if entry.state is DirectoryState.EXCLUSIVE:
                # Demote the owner to ReadOnly and wait for its data.
                entry.pending = [(requester, want_write), *entry.pending]
                entry.state = DirectoryState.PENDING_WRITEBACK
                self._send_writeback_request(tempest, block, entry.owner, "ro")
                return
            # HOME or SHARED: the home can respond immediately.
            if entry.state is DirectoryState.HOME and requester != tempest.node_id:
                tempest.set_ro(block)  # home loses ownership of its copy
            if requester != tempest.node_id:
                entry.add_sharer(requester)
                entry.state = DirectoryState.SHARED
            self._grant(tempest, block, entry, requester, rw=False)
            return

        # Write request.
        if entry.state is DirectoryState.EXCLUSIVE:
            if entry.owner == requester:
                # Stale retry: the owner already has it; grant again.
                self._grant(tempest, block, entry, requester, rw=True)
                return
            entry.pending = [(requester, want_write), *entry.pending]
            entry.state = DirectoryState.PENDING_WRITEBACK
            self._send_writeback_request(tempest, block, entry.owner, "inv")
            return
        targets = entry.sharers() - {requester}
        if entry.state is DirectoryState.SHARED and targets:
            entry.pending = [(requester, want_write), *entry.pending]
            entry.state = DirectoryState.PENDING_INVALIDATE
            entry.acks_outstanding = len(targets)
            if requester != tempest.node_id:
                tempest.invalidate(block)  # home copy goes too
            for sharer in sorted(targets):
                tempest.charge(self._per_message)
                self._counters["stache.invalidations_sent"] += 1
                tempest.send(
                    sharer,
                    self.INVAL,
                    vnet=VirtualNetwork.REQUEST,
                    size_words=REQUEST_WORDS,
                    addr=block,
                    home=tempest.node_id,
                    # The sequence of the fetch that made this sharer a
                    # sharer (see _send_writeback_request): it only
                    # poisons a grant still in flight.
                    grant_seq=self._req_seq.get(
                        (tempest.node_id, block, sharer)),
                )
            return
        # HOME, or SHARED with the requester as the only sharer.
        self._finish_write_grant(tempest, block, entry, requester)

    def _send_writeback_request(self, tempest: Tempest, block: int,
                                owner: int, demote: str) -> None:
        self._counters["stache.writeback_requests"] += 1
        tempest.send(
            owner,
            self.WRITEBACK,
            vnet=VirtualNetwork.REQUEST,
            size_words=REQUEST_WORDS,
            addr=block,
            home=tempest.node_id,
            demote=demote,
            # The sequence of the fetch whose grant made (or is making)
            # the recallee owner: it only poisons a grant still in flight.
            grant_seq=self._req_seq.get((tempest.node_id, block, owner)),
        )

    def _finish_write_grant(self, tempest: Tempest, block: int,
                            entry: SoftwareDirectoryEntry,
                            requester: int) -> None:
        entry.clear_sharers()
        entry.acks_outstanding = 0
        if requester == tempest.node_id:
            entry.state = DirectoryState.HOME
            entry.owner = None
        else:
            entry.state = DirectoryState.EXCLUSIVE
            entry.owner = requester
            if tempest.read_tag(block) is not Tag.INVALID:
                tempest.invalidate(block)
        self._grant(tempest, block, entry, requester, rw=True)

    def _grant(self, tempest: Tempest, block: int,
               entry: SoftwareDirectoryEntry, requester: int, rw: bool) -> None:
        """Deliver the block (or the local tag upgrade) to the requester."""
        if requester == tempest.node_id:
            # Home's own fault: upgrade the home tag and restart the CPU.
            if rw:
                tempest.set_rw(block)
            elif tempest.read_tag(block) is not Tag.READ_WRITE:
                tempest.set_ro(block)
            tempest.resume()
        else:
            tempest.charge(self._block_copy)
            self._counters["stache.data_replies"] += 1
            tempest.send(
                requester,
                self.DATA,
                vnet=VirtualNetwork.RESPONSE,
                size_words=DATA_WORDS,
                addr=block,
                data=tempest.export_block(block),
                rw=rw,
                home=tempest.node_id,
                fetch_seq=self._req_seq.get(
                    (tempest.node_id, block, requester)),
            )
        self._dispatch_pending(tempest, block, entry)

    def _dispatch_pending(self, tempest: Tempest, block: int,
                          entry: SoftwareDirectoryEntry) -> None:
        """Service the next queued request for this block, if any."""
        if entry.state.is_transient or not entry.pending:
            return
        requester, want_write = entry.pending.pop(0)
        # A second directory pass costs another occupancy slice.
        tempest.charge(self._home_response)
        self._start_request(tempest, block, entry, requester, want_write)

    # ------------------------------------------------------------------
    # Copy-holder handlers
    # ------------------------------------------------------------------
    def _h_inval(self, tempest: Tempest, message: Message) -> None:
        """Invalidate our read-only copy; always acknowledge.

        The copy may already be gone (silent page replacement) or mid-
        refetch (tag Busy); in both cases the tag must not be touched.
        """
        block = message.payload["addr"]
        page = tempest.page_entry(block)
        if (
            page is not None
            and page.mode == PAGE_MODE_STACHE
            and tempest.read_tag(block) in (Tag.READ_ONLY, Tag.READ_WRITE)
        ):
            tempest.invalidate(block)
            self._counters["stache.blocks_invalidated"] += 1
        elif (
            page is not None
            and page.mode == PAGE_MODE_STACHE
            and tempest.read_tag(block) is Tag.BUSY
        ):
            # Our fetch may have a grant in flight that this message
            # overtook: installing it would resurrect a copy the home
            # believes dead.  Poison only when the invalidation chases
            # the fetch we have outstanding (grant_seq matches): an
            # invalidation of an older copy — say our read-only copy,
            # while our write upgrade is queued at the home — targets a
            # grant we already consumed, and the upgrade's own grant
            # will be issued after this round completes.
            key = (tempest.node_id, block)
            grant_seq = message.payload.get("grant_seq")
            if grant_seq is not None and grant_seq == self._fetch_seq.get(key):
                self._poisoned_seq[key] = grant_seq
                self._counters["stache.grants_poisoned"] += 1
        tempest.send(
            message.payload["home"],
            self.ACK,
            vnet=VirtualNetwork.RESPONSE,
            size_words=REQUEST_WORDS,
            addr=block,
            sharer=tempest.node_id,
        )

    def _h_writeback(self, tempest: Tempest, message: Message) -> None:
        """Home wants our exclusive copy back (demoted to RO or Invalid)."""
        block = message.payload["addr"]
        demote = message.payload["demote"]
        page = tempest.page_entry(block)
        holds = (
            page is not None
            and page.mode == PAGE_MODE_STACHE
            and tempest.read_tag(block) is Tag.READ_WRITE
        )
        data = None
        wrote = False
        if holds:
            tempest.charge(self._block_copy)
            data = tempest.export_block(block)
            wrote = tempest.was_written(block)
            if demote == "ro":
                tempest.set_ro(block)
            else:
                tempest.invalidate(block)
        elif (
            page is not None
            and page.mode == PAGE_MODE_STACHE
            and tempest.read_tag(block) is Tag.BUSY
        ):
            # The recall-side twin of the _h_inval race: a grant making
            # us owner may still be in flight, and this held=False reply
            # tells the home to move on without us.  Poison only when
            # the recall chases the fetch we have outstanding (grant_seq
            # matches): a recall for a stale era — the home still
            # believing in an ownership we already gave up — must not
            # poison the replacement fetch, or the refetch loop never
            # converges.
            key = (tempest.node_id, block)
            grant_seq = message.payload.get("grant_seq")
            if grant_seq is not None and grant_seq == self._fetch_seq.get(key):
                self._poisoned_seq[key] = grant_seq
                self._counters["stache.grants_poisoned"] += 1
        # If we no longer hold the block, our replacement writeback is
        # already ahead of this reply on the same FIFO response channel.
        tempest.send(
            message.payload["home"],
            self.WB_DATA,
            vnet=VirtualNetwork.RESPONSE,
            size_words=DATA_WORDS if data is not None else REQUEST_WORDS,
            addr=block,
            data=data,
            owner=tempest.node_id,
            held=holds,
            wrote=wrote,
            demote=demote,
        )

    # ------------------------------------------------------------------
    # Home-side response handlers
    # ------------------------------------------------------------------
    def _h_wb_data(self, tempest: Tempest, message: Message) -> None:
        """The owner's copy came back; satisfy the waiting request."""
        block = message.payload["addr"]
        entry = self._dir_entry(tempest, block)
        if entry.state is not DirectoryState.PENDING_WRITEBACK:
            raise SimulationError(
                f"unexpected writeback data for {block:#x} in {entry.state}"
            )
        if message.payload["data"] is not None:
            tempest.charge(self._block_copy)
            tempest.import_block(block, message.payload["data"])
        requester, want_write = entry.pending.pop(0)
        old_owner = message.payload["owner"]
        entry.owner = None
        if want_write:
            entry.state = DirectoryState.HOME  # transient exit; re-resolved below
            entry.clear_sharers()
            self._finish_write_grant(tempest, block, entry, requester)
            return
        # Read request: the old owner keeps a read-only copy if it still
        # held the block when demoted.
        entry.clear_sharers()
        if message.payload["held"]:
            entry.add_sharer(old_owner)
        if requester != tempest.node_id:
            entry.add_sharer(requester)
            entry.state = (
                DirectoryState.SHARED
            )
            tempest.set_ro(block)
        else:
            entry.state = (
                DirectoryState.SHARED if entry.sharer_count else DirectoryState.HOME
            )
            if entry.sharer_count:
                tempest.set_ro(block)
            else:
                tempest.set_rw(block)
        self._grant(tempest, block, entry, requester, rw=False)

    def _h_ack(self, tempest: Tempest, message: Message) -> None:
        """Invalidation acknowledged; the final ack sends the data."""
        block = message.payload["addr"]
        entry = self._dir_entry(tempest, block)
        entry.remove_sharer(message.payload["sharer"])
        entry.acks_outstanding -= 1
        if entry.acks_outstanding < 0:
            raise SimulationError(f"surplus invalidation ack for {block:#x}")
        if entry.acks_outstanding > 0:
            return
        if entry.state is not DirectoryState.PENDING_INVALIDATE:
            raise SimulationError(
                f"acks complete for {block:#x} in state {entry.state}"
            )
        requester, want_write = entry.pending.pop(0)
        if not want_write:
            raise SimulationError("invalidations pending for a read request")
        entry.state = DirectoryState.HOME  # transient exit; fixed below
        self._finish_write_grant(tempest, block, entry, requester)

    def _h_repl_dirty(self, tempest: Tempest, message: Message) -> None:
        """A replaced stache page sent a modified block home."""
        block = message.payload["addr"]
        entry = self._dir_entry(tempest, block)
        tempest.charge(self._block_copy)
        tempest.import_block(block, message.payload["data"])
        self._counters["stache.replacement_writebacks"] += 1
        entry.owner = None
        if entry.state is DirectoryState.EXCLUSIVE:
            entry.state = DirectoryState.HOME
            entry.clear_sharers()
            tempest.set_rw(block)
        # If PENDING_WRITEBACK, the stale (data-less) writeback reply is
        # behind this message on the same channel and will complete the
        # transaction; the data is now in place.

    # ------------------------------------------------------------------
    # Requester-side data arrival
    # ------------------------------------------------------------------
    def _h_data(self, tempest: Tempest, message: Message) -> None:
        block = message.payload["addr"]
        key = (tempest.node_id, block)
        seq = message.payload.get("fetch_seq")
        if seq is not None:
            outstanding = self._fetch_seq.get(key)
            if seq != outstanding:
                # A grant from a superseded fetch (we already poisoned
                # and reissued under a newer sequence): the current
                # fetch's own grant is still coming, so just drop this.
                self._counters["stache.stale_grants_dropped"] += 1
                return
            if self._poisoned_seq.get(key) == seq:
                # This grant was overtaken by an invalidation or recall
                # (see _h_inval / _h_writeback): the home already
                # reclaimed the block, so installing this copy would
                # violate coherence.  Drop the data and reissue the
                # fetch under a fresh sequence; the tag is still Busy
                # and the faulting thread (if any) stays suspended.
                del self._poisoned_seq[key]
                self._counters["stache.poisoned_grants_refetched"] += 1
                page = tempest.page_entry(block)
                home = message.payload.get("home")
                if home is None:
                    home = page.home if page is not None else message.src
                elif page is not None:
                    page.home = home
                tempest.send(
                    home,
                    self.GET_RW if message.payload["rw"] else self.GET_RO,
                    vnet=VirtualNetwork.REQUEST,
                    size_words=REQUEST_WORDS,
                    addr=block,
                    requester=tempest.node_id,
                    fetch_seq=self._next_fetch_seq(tempest.node_id, block),
                )
                return
        tempest.charge(self._block_copy)
        tempest.import_block(block, message.payload["data"])
        if message.payload["rw"]:
            tempest.set_rw(block)
        else:
            tempest.set_ro(block)
        page = tempest.page_entry(block)
        if page is not None:
            # Refresh the cached home id: the reply may come from a new
            # home after a page migration.
            page.home = message.payload.get("home", page.home)
        self._counters["stache.blocks_fetched"] += 1
        if self._pending_fault.get(tempest.node_id) == block:
            # A demand fetch (or a prefetch the thread caught up with).
            self._pending_fault[tempest.node_id] = None
            tempest.resume()
        else:
            self._counters["stache.prefetches_completed"] += 1

    # ------------------------------------------------------------------
    # Page fault handler (runs on the primary CPU)
    # ------------------------------------------------------------------
    def _page_fault(self, tempest: Tempest, addr: int, is_write: bool) -> int:
        """Allocate (or FIFO-replace into) a stache page at ``addr``."""
        machine = self._machine()
        page_addr = machine.layout.page_of(addr)
        home = machine.heap.home_of(addr)
        extra_cycles = 0
        budget = machine.config.stache_page_budget
        if len(tempest.pages_with_mode(PAGE_MODE_STACHE)) >= budget:
            extra_cycles += self._replace_page(tempest, page_addr)
            return extra_cycles
        tempest.map_page(
            page_addr,
            mode=PAGE_MODE_STACHE,
            home=home,
            initial_tag=Tag.INVALID,
        )
        self._counters["stache.pages_allocated"] += 1
        return extra_cycles

    # ------------------------------------------------------------------
    # Extension: non-binding prefetch (uses the Busy tag, Section 5.4)
    # ------------------------------------------------------------------
    def prefetch(self, node_id: int, addr: int):
        """Generator: start fetching a block without blocking the thread.

        The issue cost is a couple of stores to the NP; the NP's prefetch
        handler marks the block Busy and sends the read request.  If the
        thread later faults on the block while the fetch is in flight, the
        fault handler just waits for the prefetched data (no duplicate
        request).  Prefetching hides latency but, as the paper notes, does
        not reduce message traffic.
        """
        machine = self._machine()
        tempest = machine.nodes[node_id].tempest
        block = machine.layout.block_of(addr)
        if not machine.nodes[node_id].page_table.is_mapped(addr):
            # Allocate the stache page first (same user-level page fault
            # work, charged to the prefetching thread).
            yield machine.costs.page_fault
            extra = self._page_fault(tempest, addr, is_write=False)
            if extra:
                yield extra
        yield 2  # the launch: stores to the NP's memory-mapped registers
        tempest.send(node_id, self.PREFETCH, addr=block)

    def _h_prefetch(self, tempest: Tempest, message: Message) -> None:
        """Runs on the local NP: issue the read request if still needed."""
        block = message.payload["addr"]
        page = tempest.page_entry(block)
        if page is None or page.mode != PAGE_MODE_STACHE:
            return
        if tempest.read_tag(block) is not Tag.INVALID:
            return  # already present or already being fetched
        tempest.set_busy(block)
        self._counters["stache.prefetches_issued"] += 1
        tempest.send(
            page.home,
            self.GET_RO,
            vnet=VirtualNetwork.REQUEST,
            size_words=REQUEST_WORDS,
            addr=block,
            requester=tempest.node_id,
            fetch_seq=self._next_fetch_seq(tempest.node_id, block),
        )

    # ------------------------------------------------------------------
    # Extension: check-in (Hill et al.'s cooperative shared memory op)
    # ------------------------------------------------------------------
    def check_in(self, node_id: int, addr: int):
        """Generator: flush our copy of a block back to its home.

        Replaces a future invalidation/acknowledgment round trip with one
        asynchronous notification (Section 4's discussion of check_in:
        "cut communication and latency ... but cannot attain the minimum
        of one message").  A no-op if we hold no copy.
        """
        machine = self._machine()
        tempest = machine.nodes[node_id].tempest
        block = machine.layout.block_of(addr)
        page = tempest.page_entry(block)
        if page is None or page.mode != PAGE_MODE_STACHE:
            return
        tag = tempest.read_tag(block)
        if tag not in (Tag.READ_ONLY, Tag.READ_WRITE):
            return  # no copy (or a fetch in flight): nothing to check in
        data = tempest.export_block(block) if tag is Tag.READ_WRITE else None
        tempest.invalidate(block)
        yield 3  # the launch
        self._counters["stache.checkins"] += 1
        # The response network keeps this FIFO with any writeback reply we
        # might owe the home (same discipline as replacement writebacks).
        tempest.send(
            page.home,
            self.CHECKIN,
            vnet=VirtualNetwork.RESPONSE,
            size_words=DATA_WORDS if data is not None else REQUEST_WORDS,
            addr=block,
            sharer=node_id,
            data=data,
        )

    def _h_checkin(self, tempest: Tempest, message: Message) -> None:
        """Home side: absorb a checked-in copy; no acknowledgment."""
        block = message.payload["addr"]
        sharer = message.payload["sharer"]
        data = message.payload["data"]
        entry = self._dir_entry(tempest, block)
        if data is not None:
            tempest.charge(self._block_copy)
            tempest.import_block(block, data)
            entry.owner = None
            if entry.state is DirectoryState.EXCLUSIVE:
                entry.state = DirectoryState.HOME
                entry.clear_sharers()
                tempest.set_rw(block)
            # If transient, the in-flight writeback reply completes the
            # transaction; the data is already home (FIFO ordering).
            return
        entry.remove_sharer(sharer)
        if (entry.state is DirectoryState.SHARED
                and entry.sharer_count == 0):
            entry.state = DirectoryState.HOME
            tempest.set_rw(block)

    # ------------------------------------------------------------------
    # Extension: explicit page migration (Section 7: Stache "provides
    # support to allow explicit page migration")
    # ------------------------------------------------------------------
    def migrate_page(self, node_id: int, vaddr: int, new_home: int):
        """Generator: move a quiescent home page to ``new_home``.

        Must be run by the current home node while no remote copies or
        transactions exist for the page (synchronize first — e.g. after a
        barrier with all copies checked in); raises otherwise.  The data
        moves via a bulk transfer; requests that still reach the old home
        afterwards are forwarded, and replies teach requesters the new
        home.
        """
        machine = self._machine()
        tempest = machine.nodes[node_id].tempest
        page_addr = machine.layout.page_of(vaddr)
        page = tempest.page_entry(page_addr)
        if page is None or page.mode != PAGE_MODE_HOME:
            raise SimulationError(
                f"node {node_id} is not the home of page {page_addr:#x}"
            )
        if not 0 <= new_home < machine.num_nodes or new_home == node_id:
            raise SimulationError(f"bad migration target {new_home}")
        for block, entry in page.user_word.items():
            if entry.state is not DirectoryState.HOME or entry.pending:
                raise SimulationError(
                    f"cannot migrate {page_addr:#x}: block {block:#x} is "
                    f"{entry.state.value} (migration requires quiescence)"
                )

        costs = machine.costs
        yield costs.page_replace  # table surgery at the source
        # 1. Ask the new home to create the page.
        from repro.sim.process import Future

        ready = Future(machine.engine)
        self._migrations[page_addr] = ready
        tempest.send(new_home, "stache.migrate_begin",
                     addr=page_addr, origin=node_id)
        yield from tempest.wait(ready)
        # 2. Ship the data.
        yield from tempest.wait(tempest.bulk_transfer(
            new_home, page_addr, page_addr, machine.layout.page_size))
        # 3. Retire the old mapping; leave a forwarding stub and update
        # the distributed mapping table.
        tempest.unmap_page(page_addr)
        tempest.image.clear_page(page_addr)
        self._migrated_pages[page_addr] = new_home
        machine.heap.rehome(page_addr, new_home)
        self._counters["stache.pages_migrated"] += 1

    def _h_migrate_begin(self, tempest: Tempest, message: Message) -> None:
        """New home: materialize the page, then tell the origin to ship."""
        page_addr = message.payload["addr"]
        existing = tempest.page_entry(page_addr)
        if existing is not None:
            if existing.mode != PAGE_MODE_STACHE:
                raise SimulationError(
                    f"migration target already homes {page_addr:#x}"
                )
            # A stale (fully invalid, by the quiescence precondition)
            # stache page occupies the address: recycle it.
            tempest.unmap_page(page_addr)
            tempest.image.clear_page(page_addr)
        tempest.map_page(
            page_addr,
            mode=PAGE_MODE_HOME,
            home=tempest.node_id,
            initial_tag=Tag.READ_WRITE,
            user_word={},
        )
        # This node may have been a forwarding stub from an earlier
        # migration of the same page; it is authoritative again.
        self._migrated_pages.pop(page_addr, None)
        tempest.send(
            message.payload["origin"],
            "stache.migrate_ready",
            vnet=VirtualNetwork.RESPONSE,
            addr=page_addr,
        )

    def _h_migrate_ready(self, tempest: Tempest, message: Message) -> None:
        self._migrations.pop(message.payload["addr"]).resolve(None)

    def _replace_page(self, tempest: Tempest, new_page_addr: int) -> int:
        """Evict the FIFO-oldest stache page and reuse its frame."""
        machine = self._machine()
        costs = machine.costs
        victim = tempest.oldest_page_with_mode(PAGE_MODE_STACHE)
        if victim is None:
            raise SimulationError("stache budget is zero: nothing to replace")
        extra = costs.page_replace
        dirty_blocks = 0
        for block in machine.layout.blocks_in_page(victim.vpage):
            tag = tempest.read_tag(block)
            if tag is Tag.READ_WRITE:
                dirty_blocks += 1
                tempest.send(
                    victim.home,
                    self.REPL_DIRTY,
                    vnet=VirtualNetwork.RESPONSE,
                    size_words=DATA_WORDS,
                    addr=block,
                    data=tempest.export_block(block),
                )
            if tag in (Tag.READ_ONLY, Tag.READ_WRITE):
                tempest.invalidate(block)
        extra += dirty_blocks * costs.block_copy
        tempest.image.clear_page(victim.vpage)
        tempest.remap_page(victim.vpage, new_page_addr, initial_tag=Tag.INVALID)
        # The recycled frame serves a (possibly) different home now.
        entry = tempest.page_entry(new_page_addr)
        entry.home = machine.heap.home_of(new_page_addr)
        self._counters["stache.pages_replaced"] += 1
        return extra
