"""Online protocol conformance checking.

The quiescence checker (:mod:`repro.protocols.verify`) inspects a
machine *after* a run; a transient violation that self-heals before the
end of the run is invisible to it.  This module checks protocol
behaviour *as it happens*, against an explicit, declarative
specification — the TransForm idea of validating a memory system against
its transition relation, applied to the user-level protocols this
repository grows:

* **Directory transitions** — every assignment to a directory entry's
  ``state`` (both :class:`~repro.protocols.directory.HardwareDirectoryEntry`
  and :class:`~repro.protocols.directory.SoftwareDirectoryEntry` have an
  observing subclass a watched entry is switched to) is checked against
  the protocol's legal single-step relation.
* **Tag transitions** — every :meth:`~repro.memory.tags.TagStore.set_tag`
  (the single mutation point all of ``set_rw``/``set_ro``/``invalidate``
  route through) is checked the same way.
* **Message causality** — a data grant must answer an outstanding
  request; an invalidation acknowledgment must answer an outstanding
  invalidation; a writeback reply must answer an outstanding writeback
  request.  Retransmits and duplicated deliveries (fault injection) are
  deduplicated by message id, so the checks hold on lossy networks too.
* **Handler postconditions** — after every protocol handler invocation
  the home entry (or IVY manager record) named by the message must
  satisfy the protocol's structural invariants (no negative ack counts,
  transient states imply a waiting request, ...).
* **Edge coverage** — every block access fault and every message
  delivery is recorded in :attr:`ConformanceMonitor.edges` as a
  ``(directory state, event, receiver tag)`` triple: the coverage
  currency of the protocol walk (:mod:`repro.protocols.explore`).

A :class:`FlightRecorder` keeps the last N events per block in a ring
buffer, so a :class:`~repro.protocols.verify.CoherenceViolation` report
shows the exact history that led to the violation — the same event
stream :class:`~repro.harness.trace.ProtocolTrace` records, plus tag and
directory-state transitions.

The monitor is **passive**: it charges no cycles, draws no random
numbers, and writes nothing to ``machine.stats``, so a fixed-seed run
with the monitor enabled is cycle- and statistics-identical to one
without it.  Enable it per machine with
:meth:`~repro.machine.MachineBase.enable_conformance`, or for a whole
test run with the ``REPRO_CONFORMANCE=1`` environment variable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.memory.tags import Tag
from repro.network.message import NACK_HANDLER
from repro.protocols.directory import DirectoryState
from repro.protocols.verify import CoherenceViolation

__all__ = [
    "ProtocolSpec",
    "ConformanceMonitor",
    "FlightRecorder",
    "RecordedEvent",
    "STACHE_SPEC",
    "DIRNNB_SPEC",
    "IVY_SPEC",
    "EM3D_UPDATE_SPEC",
    "SPECS",
    "spec_for",
]


# ----------------------------------------------------------------------
# Declarative transition tables
# ----------------------------------------------------------------------
def _pairs(*edges: tuple) -> frozenset:
    """Edge list -> frozenset, with every self-loop added (idempotent
    re-assignment of the current value is never a protocol error)."""
    states = {state for edge in edges for state in edge}
    return frozenset(edges) | frozenset((state, state) for state in states)


#: Legal single-step directory transitions shared by Stache and DirNNB.
#: Transient exits pass through HOME (``_h_wb_data``/``_h_ack`` assign
#: HOME before ``_finish_write_grant`` re-resolves), so no direct
#: PENDING_* -> EXCLUSIVE edge exists.
DIRECTORY_TRANSITIONS = _pairs(
    (DirectoryState.HOME, DirectoryState.SHARED),
    (DirectoryState.HOME, DirectoryState.EXCLUSIVE),
    (DirectoryState.SHARED, DirectoryState.HOME),
    (DirectoryState.SHARED, DirectoryState.EXCLUSIVE),
    (DirectoryState.SHARED, DirectoryState.PENDING_INVALIDATE),
    (DirectoryState.EXCLUSIVE, DirectoryState.HOME),
    (DirectoryState.EXCLUSIVE, DirectoryState.PENDING_WRITEBACK),
    (DirectoryState.PENDING_WRITEBACK, DirectoryState.HOME),
    (DirectoryState.PENDING_WRITEBACK, DirectoryState.SHARED),
    (DirectoryState.PENDING_INVALIDATE, DirectoryState.HOME),
)

#: Legal single-step access-tag transitions (Stache and IVY; DirNNB has
#: no tags).  BUSY marks a fetch in flight: it may only be entered from
#: a non-writable state and must exit via a data grant, so BUSY -> BUSY
#: (a duplicate request launch), BUSY -> INVALID (a lost fetch) and
#: READ_WRITE -> BUSY (re-fetching an owned block) are all illegal.
TAG_TRANSITIONS = frozenset({
    (Tag.INVALID, Tag.INVALID),
    (Tag.READ_ONLY, Tag.READ_ONLY),
    (Tag.READ_WRITE, Tag.READ_WRITE),
    (Tag.INVALID, Tag.BUSY),
    (Tag.READ_ONLY, Tag.BUSY),
    (Tag.BUSY, Tag.READ_ONLY),
    (Tag.BUSY, Tag.READ_WRITE),
    (Tag.INVALID, Tag.READ_ONLY),
    (Tag.INVALID, Tag.READ_WRITE),
    (Tag.READ_ONLY, Tag.READ_WRITE),
    (Tag.READ_WRITE, Tag.READ_ONLY),
    (Tag.READ_ONLY, Tag.INVALID),
    (Tag.READ_WRITE, Tag.INVALID),
})


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's conformance specification.

    ``directory_transitions`` / ``tag_transitions`` are the legal
    single-step relations (None disables that check).  The handler-name
    sets drive the message-level causality checks: a *grant* must answer
    an outstanding *request* for the same (requester, address), an *ack*
    must answer an outstanding *inval*, and a *writeback reply* must
    answer an outstanding *writeback request*.
    """

    name: str
    directory_transitions: frozenset | None
    tag_transitions: frozenset | None
    request_handlers: frozenset
    grant_handlers: frozenset
    inval_handlers: frozenset
    ack_handlers: frozenset
    writeback_request_handlers: frozenset
    writeback_reply_handlers: frozenset
    #: True when the home component reports accepted requests itself
    #: (:meth:`ConformanceMonitor.note_request`) instead of the monitor
    #: counting request *sends* — DirNNB's directory controller does
    #: this, so the causality check also covers requests that reach the
    #: controller without crossing the observed interconnect.
    requests_at_home: bool = False
    #: Step-indexed bulk-update messages (em3d-update's fuzzy barrier).
    #: These are *not* part of the request/grant causality graph; the
    #: monitor instead checks that each sender flushes steps in
    #: non-decreasing order per ``(src, dst, kind)`` channel and that
    #: the receive side buffers (never applies) updates ahead of its
    #: per-kind safety watermark — the single-writer-within-a-step
    #: relaxation that the flush boundary restores.
    update_handlers: frozenset = frozenset()


STACHE_SPEC = ProtocolSpec(
    name="stache",
    directory_transitions=DIRECTORY_TRANSITIONS,
    tag_transitions=TAG_TRANSITIONS,
    request_handlers=frozenset({"stache.get_ro", "stache.get_rw"}),
    grant_handlers=frozenset({"stache.data"}),
    inval_handlers=frozenset({"stache.inval"}),
    ack_handlers=frozenset({"stache.ack"}),
    writeback_request_handlers=frozenset({"stache.writeback"}),
    writeback_reply_handlers=frozenset({"stache.wb_data"}),
)

DIRNNB_SPEC = ProtocolSpec(
    name="dirnnb",
    directory_transitions=DIRECTORY_TRANSITIONS,
    tag_transitions=None,  # DirNNB is all-hardware: no access tags
    request_handlers=frozenset({"dir.get"}),
    grant_handlers=frozenset({"dir.data"}),
    inval_handlers=frozenset({"dir.inval"}),
    ack_handlers=frozenset({"dir.ack"}),
    writeback_request_handlers=frozenset({"dir.wb"}),
    writeback_reply_handlers=frozenset({"dir.wb_data"}),
    requests_at_home=True,
)

IVY_SPEC = ProtocolSpec(
    name="ivy",
    directory_transitions=None,  # IVY keeps _PageState, not a directory
    tag_transitions=TAG_TRANSITIONS,
    request_handlers=frozenset({"ivy.get"}),
    grant_handlers=frozenset({"ivy.grant"}),
    inval_handlers=frozenset({"ivy.inval"}),
    ack_handlers=frozenset({"ivy.ack"}),
    writeback_request_handlers=frozenset({"ivy.recall"}),
    writeback_reply_handlers=frozenset({"ivy.page_sent"}),
)

#: The EM3D update protocol relaxes single-writer semantics *within* a
#: compute step only: remote copies drift while updates for the current
#: step are in flight, and the fuzzy flush boundary restores agreement.
#: Its spec therefore keeps Stache's structural relations (the inherited
#: paths are plain Stache), adds the custom fetch handlers to the
#: request/grant causality sets, and declares ``em3d.update`` as a
#: step-indexed update stream checked by the watermark rules above
#: rather than by request/grant causality.
EM3D_UPDATE_SPEC = ProtocolSpec(
    name="em3d-update",
    directory_transitions=DIRECTORY_TRANSITIONS,
    tag_transitions=TAG_TRANSITIONS,
    request_handlers=frozenset({"stache.get_ro", "stache.get_rw",
                                "em3d.get"}),
    grant_handlers=frozenset({"stache.data", "em3d.data"}),
    inval_handlers=frozenset({"stache.inval"}),
    ack_handlers=frozenset({"stache.ack"}),
    writeback_request_handlers=frozenset({"stache.writeback"}),
    writeback_reply_handlers=frozenset({"stache.wb_data"}),
    update_handlers=frozenset({"em3d.update"}),
)

#: Protocol name (the class's ``name`` attribute / DirNNB's system name)
#: -> spec.  Every registered protocol now has one; em3d-update's is
#: step-indexed (single-writer relaxed within a step, restored at flush
#: boundaries) rather than absent.
SPECS = {
    "stache": STACHE_SPEC,
    "stache-migratory": STACHE_SPEC,
    "ivy": IVY_SPEC,
    "dirnnb": DIRNNB_SPEC,
    "em3d-update": EM3D_UPDATE_SPEC,
}


def spec_for(machine) -> ProtocolSpec | None:
    """The conformance spec for ``machine``'s effective protocol, if any.

    Registry-driven: the spec key is the installed protocol's name, or —
    for backends whose protocol is hardwired (DirNNB) — the backend
    registry's ``builtin_protocol``.  Imported lazily because
    ``repro.backends`` depends on the protocol registry; protocol-package
    modules stay backend-neutral.
    """
    from repro.backends import spec_name_for

    return SPECS.get(spec_name_for(machine))


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordedEvent:
    """One recorded occurrence (superset of ProtocolTrace's kinds)."""

    time: float
    kind: str        # "send" | "deliver" | "drop" | "fault" | "tag" | "state"
    node: int        # acting node / message source
    dst: int | None  # message destination (None for local events)
    what: str        # handler name, fault kind, or transition description
    block: int | None

    def format(self) -> str:
        where = f"node{self.node}"
        if self.dst is not None:
            where += f" -> node{self.dst}"
        addr = f"  addr={self.block:#x}" if self.block is not None else ""
        return f"{self.time:>10.0f}  {self.kind:<8} {where:<18} {self.what}{addr}"


class FlightRecorder:
    """The last N events, globally and per block, in ring buffers.

    Violation reports pull the per-block history when the violating
    block is known (falling back to the global ring), so the report
    reads as the story of exactly the transaction that went wrong.
    """

    def __init__(self, history: int = 64):
        self.history = history
        self._global: deque[RecordedEvent] = deque(maxlen=history)
        self._per_block: dict[int, deque[RecordedEvent]] = {}

    def record(self, time: float, kind: str, node: int, dst: int | None,
               what: str, block: int | None) -> None:
        event = RecordedEvent(time, kind, node, dst, what, block)
        self._global.append(event)
        if block is not None:
            ring = self._per_block.get(block)
            if ring is None:
                ring = self._per_block[block] = deque(maxlen=self.history)
            ring.append(event)

    def events(self, block: int | None = None) -> list[RecordedEvent]:
        if block is not None and block in self._per_block:
            return list(self._per_block[block])
        return list(self._global)

    def report(self, block: int | None = None) -> str:
        events = self.events(block)
        scope = f" for block {block:#x}" if block is not None else ""
        lines = [f"flight recorder: last {len(events)} events{scope}"]
        lines.extend(event.format() for event in events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._global)


# ----------------------------------------------------------------------
# The monitor
# ----------------------------------------------------------------------
class ConformanceMonitor:
    """Online checker for one machine, against one :class:`ProtocolSpec`.

    Construction is cheap; :meth:`attach` wires the observers (the same
    emission points ``ProtocolTrace`` uses, plus the tag-store and
    directory-entry hooks).  ``strict=True`` (the default) raises
    :class:`CoherenceViolation` at the violating event, with the flight
    recorder's history appended; ``strict=False`` only records into
    :attr:`violations`.
    """

    def __init__(self, machine, spec: ProtocolSpec, strict: bool = True,
                 history: int = 64):
        self.machine = machine
        self.spec = spec
        self.strict = strict
        self.recorder = FlightRecorder(history)
        #: Every violation's summary line, in detection order.
        self.violations: list[str] = []
        #: Number of individual conformance checks performed.
        self.checks = 0
        # Watched directory entries: (home node, block) -> entry, plus a
        # reverse map so the state observer can name the entry.  Holding
        # the entry objects keeps id() keys stable.
        self._entries: dict[tuple[int, int], object] = {}
        self._entry_keys: dict[int, tuple[int, int]] = {}
        self._block_entries: dict[int, object] = {}
        #: Every ``(directory state, event, receiver tag)`` edge seen:
        #: the event is ``fault.read``/``fault.write`` or a delivered
        #: handler; the directory state is the block's home entry (None
        #: for IVY), the tag the receiver's (its cache-line state on
        #: DirNNB, None where the block is unmapped or uncached).
        self.edges: set[tuple] = set()
        # Message causality state, keyed (node, addr).
        self._outstanding: dict[tuple[int, int], int] = {}
        self._expected_acks: dict[tuple[int, int], int] = {}
        self._expected_wb: dict[tuple[int, int], int] = {}
        # Dedup retransmits/duplicate deliveries by message id.
        self._sent_ids: set[int] = set()
        self._delivered_ids: set[int] = set()
        # IVY keeps its manager records on the protocol object.
        protocol = getattr(machine, "protocol", None)
        self._ivy_pages = (
            protocol._pages
            if spec is IVY_SPEC and protocol is not None else None
        )
        # Step-indexed update protocols (em3d-update) keep per-node
        # receive-side state on the protocol.  Held as the protocol
        # object (not the list) because ``install`` rebuilds the list.
        self._update_protocol = (
            protocol if spec.update_handlers and protocol is not None
            else None
        )
        # Highest update step sent per (src, dst, kind) channel, and the
        # highest safety watermark seen per (node, kind): both may only
        # advance.
        self._update_sent: dict[tuple[int, int, str], int] = {}
        self._update_safe: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    def attach(self) -> "ConformanceMonitor":
        """Wire the machine's emission points to this monitor."""
        self.machine.interconnect.observers.append(self._on_message)
        self.machine.fault_observers.append(self._on_fault)
        for node in self.machine.nodes:
            tags = getattr(node, "tags", None)
            if tags is not None and self.spec.tag_transitions is not None:
                tags.observer = self._on_tag
            directory = getattr(node, "directory", None)
            if directory is not None:  # DirNNB: sweep existing entries
                for block, entry in directory.entries().items():
                    self.watch_entry(node.node_id, block, entry)
            # Stache-family: sweep the software directories already
            # materialized in home pages.
            page_table = getattr(node, "page_table", None)
            if page_table is not None:
                for page in page_table.mapped_pages():
                    if isinstance(page.user_word, dict):
                        for block, entry in page.user_word.items():
                            if hasattr(entry, "state"):
                                self.watch_entry(
                                    node.node_id, block, entry
                                )
        return self

    def note_request(self, block: int, requester: int) -> None:
        """The home accepted a request (``requests_at_home`` protocols).

        Called by the component that owns the home-side state (DirNNB's
        directory controller), so requests injected without crossing the
        interconnect — the home's own misses, direct-drive unit tests —
        still arm the grant-causality check.
        """
        key = (requester, block)
        self._outstanding[key] = self._outstanding.get(key, 0) + 1

    def watch_entry(self, home: int, block: int, entry) -> None:
        """Observe every ``state`` assignment on a directory entry: the
        entry becomes its class's observing subclass (see
        :mod:`repro.protocols.directory`), so only watched entries pay
        for a ``state`` property."""
        if self.spec.directory_transitions is None:
            return
        self._entries[(home, block)] = entry
        self._entry_keys[id(entry)] = (home, block)
        self._block_entries[block] = entry
        entry._observer = self._on_state
        entry.__class__ = entry.observed

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def _on_state(self, entry, old: DirectoryState,
                  new: DirectoryState) -> None:
        home, block = self._entry_keys[id(entry)]
        self.checks += 1
        self.recorder.record(
            self.machine.engine.now, "state", home, None,
            f"{old.value} -> {new.value}", block,
        )
        if (old, new) not in self.spec.directory_transitions:
            self._violation(
                f"illegal directory transition {old.value} -> {new.value} "
                f"for block {block:#x} at home node {home}",
                block,
            )

    def _on_tag(self, node: int, addr: int, old: Tag, new: Tag) -> None:
        self.checks += 1
        self.recorder.record(
            self.machine.engine.now, "tag", node, None,
            f"{old.value} -> {new.value}", addr,
        )
        if (old, new) not in self.spec.tag_transitions:
            self._violation(
                f"illegal tag transition {old.value} -> {new.value} "
                f"at {addr:#x} on node {node}",
                addr,
            )

    def _on_fault(self, fault) -> None:
        self.recorder.record(
            self.machine.engine.now, "fault", fault.node, None,
            fault.kind, fault.block_addr,
        )
        self.edges.add((
            self.directory_state(fault.block_addr),
            "fault.write" if fault.is_write else "fault.read",
            fault.tag.value,
        ))

    def home_record(self, block: int):
        """The home's directory entry (IVY: manager record) for
        ``block``; None until the protocol materializes it."""
        if self._ivy_pages is not None:
            return self._ivy_pages.get(
                (self.machine.heap.home_of(block), block))
        return self._block_entries.get(block)

    def directory_state(self, block: int) -> str | None:
        """``block``'s home directory state (None for IVY)."""
        if self.spec.directory_transitions is None:
            return None
        entry = self._block_entries.get(block)
        # Entries materialize on first use, in the HOME state.
        state = DirectoryState.HOME if entry is None else entry.state
        return state.value

    def tag_at(self, node_id: int, addr: int) -> str | None:
        """``node_id``'s access tag for ``addr`` (DirNNB: its cache
        line state); None when the page is unmapped or the line absent."""
        node = self.machine.nodes[node_id]
        tags = getattr(node, "tags", None)
        if tags is None:
            line = node.cache.lookup(addr)
            return None if line is None else line.state.value
        if not tags.has_page(addr):
            return None
        return tags.read_tag(addr).value

    def _on_message(self, kind: str, message) -> None:
        addr = message.payload.get("addr")
        self.recorder.record(
            self.machine.engine.now, kind, message.src, message.dst,
            message.handler, addr,
        )
        handler = message.handler
        if handler == NACK_HANDLER or addr is None:
            return
        if kind == "deliver":
            self.edges.add((self.directory_state(addr), handler,
                            self.tag_at(message.dst, addr)))
        spec = self.spec
        if kind == "send":
            # A retransmit re-enters send() with the same message id;
            # causality counts the logical message once.
            if message.msg_id in self._sent_ids:
                return
            self._sent_ids.add(message.msg_id)
            if handler in spec.request_handlers:
                if not spec.requests_at_home:
                    requester = message.payload.get("requester", message.src)
                    key = (requester, addr)
                    self._outstanding[key] = (
                        self._outstanding.get(key, 0) + 1
                    )
            elif handler in spec.inval_handlers:
                key = (message.src, addr)
                self._expected_acks[key] = self._expected_acks.get(key, 0) + 1
            elif handler in spec.writeback_request_handlers:
                key = (message.src, addr)
                self._expected_wb[key] = self._expected_wb.get(key, 0) + 1
            elif handler in spec.update_handlers:
                # Step-indexed updates: each sender flushes steps in
                # order, so the step sequence on one (src, dst, kind)
                # channel may never regress at the send side (sends are
                # unaffected by network faults, unlike deliveries).
                self.checks += 1
                kind = message.payload.get("kind")
                step = message.payload.get("step", 0)
                channel = (message.src, message.dst, kind)
                last = self._update_sent.get(channel)
                if last is not None and step < last:
                    self._violation(
                        f"update step regressed on channel node"
                        f"{message.src} -> node{message.dst} "
                        f"kind={kind!r}: step {step} after step {last}",
                        addr,
                    )
                else:
                    self._update_sent[channel] = step
        elif kind == "deliver":
            # Duplicate deliveries (fault injection) count once.
            if message.msg_id in self._delivered_ids:
                return
            self._delivered_ids.add(message.msg_id)
            if handler in spec.grant_handlers:
                self.checks += 1
                key = (message.dst, addr)
                count = self._outstanding.get(key, 0)
                if count <= 0:
                    self._violation(
                        f"data grant {handler} to node {message.dst} for "
                        f"{addr:#x} answers no outstanding request",
                        addr,
                    )
                else:
                    self._outstanding[key] = count - 1
            elif handler in spec.ack_handlers:
                self.checks += 1
                key = (message.dst, addr)
                count = self._expected_acks.get(key, 0)
                if count <= 0:
                    self._violation(
                        f"surplus acknowledgment {handler} at node "
                        f"{message.dst} for {addr:#x}: no invalidation "
                        f"outstanding",
                        addr,
                    )
                else:
                    self._expected_acks[key] = count - 1
            elif handler in spec.writeback_reply_handlers:
                self.checks += 1
                key = (message.dst, addr)
                count = self._expected_wb.get(key, 0)
                if count <= 0:
                    self._violation(
                        f"writeback reply {handler} at node {message.dst} "
                        f"for {addr:#x}: no writeback request outstanding",
                        addr,
                    )
                else:
                    self._expected_wb[key] = count - 1

    # ------------------------------------------------------------------
    # Handler postconditions
    # ------------------------------------------------------------------
    def after_handler(self, node_id: int, argument) -> None:
        """Check structural invariants after one handler invocation.

        ``argument`` is whatever the handler received: a Message (its
        payload names the block/page) or an AccessFault.
        """
        payload = getattr(argument, "payload", None)
        if payload is not None:
            addr = payload.get("addr")
        else:
            addr = getattr(argument, "block_addr", None)
        if addr is None:
            return
        entry = self._entries.get((node_id, addr))
        if entry is not None:
            self._check_entry(node_id, addr, entry)
        if self._ivy_pages is not None:
            state = self._ivy_pages.get((node_id, addr))
            if state is not None:
                self._check_ivy_page(node_id, addr, state)
        if self._update_protocol is not None:
            states = getattr(self._update_protocol, "_states", None)
            if states and 0 <= node_id < len(states):
                self._check_update_state(node_id, states[node_id])

    def _check_entry(self, home: int, block: int, entry) -> None:
        self.checks += 1
        if entry.acks_outstanding < 0:
            self._violation(
                f"negative acks_outstanding ({entry.acks_outstanding}) for "
                f"block {block:#x} at home node {home}",
                block,
            )
        state = entry.state
        if state is DirectoryState.PENDING_INVALIDATE:
            if entry.acks_outstanding < 1:
                self._violation(
                    f"block {block:#x} pending-invalidate with no "
                    f"acknowledgments outstanding at home node {home}",
                    block,
                )
            if not entry.pending:
                self._violation(
                    f"block {block:#x} pending-invalidate with no waiting "
                    f"request at home node {home}",
                    block,
                )
        elif state is DirectoryState.PENDING_WRITEBACK and not entry.pending:
            self._violation(
                f"block {block:#x} pending-writeback with no waiting "
                f"request at home node {home}",
                block,
            )

    def _check_ivy_page(self, manager: int, page_addr: int, state) -> None:
        self.checks += 1
        if state.acks_outstanding < 0:
            self._violation(
                f"negative acks_outstanding ({state.acks_outstanding}) for "
                f"page {page_addr:#x} at manager node {manager}",
                page_addr,
            )
        if state.busy != (state.active is not None):
            self._violation(
                f"page {page_addr:#x} at manager node {manager}: busy flag "
                f"({state.busy}) disagrees with active transaction "
                f"({state.active!r})",
                page_addr,
            )
        if not state.busy and state.acks_outstanding != 0:
            self._violation(
                f"page {page_addr:#x} at manager node {manager}: idle with "
                f"{state.acks_outstanding} acknowledgments outstanding",
                page_addr,
            )

    def _check_update_state(self, node: int, state) -> None:
        """Step-indexed update invariants (em3d-update's fuzzy barrier).

        Within a compute step remote copies may legitimately disagree
        with the home — that is the protocol's documented relaxation —
        but three structural facts must still hold at every handler
        boundary: a parked computation and its wait key agree, nothing
        for an already-safe step sits buffered (an applied-late update
        would be a lost write), and the per-kind safety watermark only
        advances (a regression would re-admit a completed step).
        """
        self.checks += 1
        if (state.waiter is None) != (state.wait_key is None):
            self._violation(
                f"node {node}: barrier waiter ({state.waiter!r}) "
                f"disagrees with wait key ({state.wait_key!r})"
            )
        for (kind, step), payloads in state.deferred.items():
            if payloads and step <= state.safe_step[kind]:
                self._violation(
                    f"node {node}: update for kind={kind!r} step {step} "
                    f"still buffered though the watermark is "
                    f"{state.safe_step[kind]} (it should have been "
                    f"applied at the flush boundary)"
                )
        for kind, safe in state.safe_step.items():
            key = (node, kind)
            last = self._update_safe.get(key)
            if last is not None and safe < last:
                self._violation(
                    f"node {node}: safety watermark for kind={kind!r} "
                    f"regressed from {last} to {safe}"
                )
            if last is None or safe > last:
                self._update_safe[key] = safe

    # ------------------------------------------------------------------
    def _violation(self, summary: str, block: int | None = None) -> None:
        self.violations.append(summary)
        if self.strict:
            raise CoherenceViolation(
                f"{summary}\n{self.recorder.report(block)}"
            )

    def __repr__(self) -> str:
        return (
            f"ConformanceMonitor(spec={self.spec.name!r}, "
            f"checks={self.checks}, violations={len(self.violations)})"
        )
