"""Bounded symbolic exploration of protocol transition relations.

The conformance layer (:mod:`repro.protocols.conformance`) declares each
protocol's legal behaviour as data: transition tables plus handler
vocabularies.  The tests that exercise those tables, however, were
hand-written — someone had to *think of* the late-grant race before
``test_late_grant_race_is_poisoned_and_refetched`` could pin it.  This
module closes that gap: it walks an abstract model of each protocol's
transition relation over a small bound (2–3 nodes, 1–2 blocks, a couple
of faulting accesses per node), enumerating every interleaving of
interface operations and in-flight message deliveries — including the
overtake/reorder schedules the :class:`~repro.network.faults.FaultPlan`
vocabulary can express — and emits each frontier as a concrete,
deterministically *pinned* litmus test (an access program plus a
:class:`~repro.network.faults.ScriptedFaultPlan` schedule) that
:mod:`repro.harness.litmus` replays on the real simulator.

Three things fall out:

* **Coverage, not sampling.**  Every reachable ``(state, event)`` edge
  of every explorable :class:`ProtocolSpec` is enumerated; the emitted
  corpus is a greedy set cover, so replaying it drives the real machine
  through every edge the model can reach.  The grant-vs-invalidation
  overtaking family is *derived*, not guessed.
* **A second implementation to diverge against.**  The models here
  mirror the handlers line for line; every state mutation the model
  performs is asserted against the declarative tables
  (:class:`SpecDivergence` on mismatch), so the spec, the handlers, and
  the model must all agree before a single test is emitted.
* **Determinism.**  Exploration draws no random numbers and reads no
  clocks; the same spec and bounds produce byte-identical corpora,
  which is what lets ``tests/litmus/`` be committed and CI regenerate
  it, failing on drift.

The models deliberately re-implement the protocol logic instead of
driving the real classes: the real handlers are welded to the event
engine (charges, futures, processes), while exploration needs a pure
state -> state function it can fork thousands of times.  The
conformance assertions plus the replay of every emitted case on the
real machines are what keep the twin honest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations

from repro.memory.tags import Tag
from repro.protocols.conformance import (
    DIRNNB_SPEC,
    IVY_SPEC,
    STACHE_SPEC,
    ProtocolSpec,
)
from repro.protocols.directory import DirectoryState

__all__ = [
    "ExploreConfig",
    "ExplorationResult",
    "SpecDivergence",
    "SynthesizedCase",
    "explore",
    "explore_protocol",
    "synthesize_corpus",
    "EXPLORABLE_PROTOCOLS",
    "SCHEDULE_STRIDE",
]

#: Cycles between consecutive pinned delivery slots.  Much larger than
#: any natural handler/transfer latency in the simulator (an IVY page
#: transfer is the worst case), so a schedule of slot-delays reproduces
#: the explored interleaving regardless of backend timing details.
SCHEDULE_STRIDE = 20_000

#: Message payload keys whose values are node ids (needed when
#: canonicalizing states under node permutation).
_NODE_KEYS = frozenset({
    "requester", "sharer", "owner", "member", "home", "manager",
})

_REQUEST = "request"
_RESPONSE = "response"


class SpecDivergence(Exception):
    """The abstract model stepped outside the declarative spec.

    Raised during exploration when a modelled handler performs a
    directory/tag transition absent from the protocol's tables or emits
    a handler outside its vocabulary — i.e. the spec and the (modelled)
    implementation disagree.  The message names the offending edge.
    """


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds for one exploration: small by design (litmus, not model
    checking at scale)."""

    nodes: int = 3
    blocks: int = 1
    ops_per_node: int = 2
    #: A delivery may jump at most this many queued messages on its
    #: channel (0 = strict FIFO; 1 models one in-flight overtake, which
    #: is what a single ``reorder`` fault verdict can express).
    max_overtake: int = 1
    #: Optional cap on the *total* faulting accesses across all nodes;
    #: lets a 3-node bound stay tractable (any two nodes can still use
    #: their full per-node budget against each other).
    total_ops: int | None = None
    #: Trace-depth bound.  Necessary, not merely economical: with three
    #: nodes the explorer discovers a genuine adversarial livelock —
    #: two remote requesters can poison each other's grants forever
    #: (each refetch triggers the writeback/invalidation that poisons
    #: the other's next grant), and the growing fetch sequence numbers
    #: make every round a fresh state.  Fair delivery terminates the
    #: real machine; the unfair schedules are unbounded, so exploration
    #: is depth-bounded like any litmus-scale model check.
    max_steps: int = 20

    def __post_init__(self):
        if self.nodes < 2 or self.blocks < 1 or self.ops_per_node < 1:
            raise ValueError(f"degenerate bounds {self!r}")


# ----------------------------------------------------------------------
# Path state: one explored prefix (trace + pending messages)
# ----------------------------------------------------------------------
@dataclass
class _Path:
    """A mutable exploration prefix; forked by deep copy per choice."""

    state: dict
    trace: list = field(default_factory=list)
    #: mid -> {handler, src, dst, vnet, payload, send_step, deliver_step}
    msgs: dict = field(default_factory=dict)
    next_mid: int = 0
    counters: dict = field(default_factory=dict)
    #: Edges taken by the step currently being applied.
    step_edges: list = field(default_factory=list)
    #: Nodes unblocked during the current step.
    step_unblocked: set = field(default_factory=set)

    # -- message plumbing ----------------------------------------------
    def send(self, handler: str, src: int, dst: int, vnet: str,
             **payload) -> None:
        mid = self.next_mid
        self.next_mid += 1
        step = len(self.trace)
        self.msgs[mid] = {
            "handler": handler, "src": src, "dst": dst, "vnet": vnet,
            "payload": payload, "send_step": step, "deliver_step": None,
        }
        if src == dst:
            # Local messages never cross the observed interconnect (and
            # never consult the fault plan): deliver synchronously.
            self.msgs[mid]["deliver_step"] = step
            self.state["local"].append(mid)
        else:
            self.state["chan"].setdefault((src, dst, vnet), []).append(mid)

    def incr(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def edge(self, state_key, event: str, dst_state) -> None:
        self.step_edges.append((_value(state_key), event, _value(dst_state)))

    def unblock(self, node: int) -> None:
        if self.state["blocked"][node]:
            self.state["blocked"][node] = False
            self.step_unblocked.add(node)


def _value(state) -> str | None:
    return state.value if hasattr(state, "value") else state


def _edge_sort_key(edge):
    return tuple("" if part is None else str(part) for part in edge)


# ----------------------------------------------------------------------
# Model base: shared send/assert/canonicalize machinery
# ----------------------------------------------------------------------
class _Model:
    """One protocol's pure transition-relation twin."""

    name: str
    spec: ProtocolSpec

    def __init__(self, config: ExploreConfig):
        self.config = config
        self.home = 0
        handler_sets = (
            self.spec.request_handlers | self.spec.grant_handlers
            | self.spec.inval_handlers | self.spec.ack_handlers
            | self.spec.writeback_request_handlers
            | self.spec.writeback_reply_handlers | self.spec.update_handlers
        )
        self._vocabulary = handler_sets

    # -- spec assertions -----------------------------------------------
    def assert_dir(self, old: DirectoryState, new: DirectoryState,
                   block: int) -> None:
        table = self.spec.directory_transitions
        if table is not None and (old, new) not in table:
            raise SpecDivergence(
                f"{self.name}: model directory transition "
                f"{old.value} -> {new.value} for block {block} is not in "
                f"the spec's directory_transitions table"
            )

    def assert_tag(self, old: Tag, new: Tag, node: int, block: int) -> None:
        table = self.spec.tag_transitions
        if table is not None and (old, new) not in table:
            raise SpecDivergence(
                f"{self.name}: model tag transition {old.value} -> "
                f"{new.value} at node {node} block {block} is not in the "
                f"spec's tag_transitions table"
            )

    def assert_handler(self, handler: str) -> None:
        if handler not in self._vocabulary:
            raise SpecDivergence(
                f"{self.name}: model sent handler {handler!r}, which is "
                f"outside the spec's handler vocabulary"
            )

    # -- state mutation helpers ----------------------------------------
    def set_dir(self, path: _Path, block: int, new: DirectoryState) -> None:
        entry = path.state["dir"][block]
        old = entry["state"]
        if old is not new:
            self.assert_dir(old, new, block)
            entry["state"] = new

    def set_tag(self, path: _Path, node: int, block: int, new: Tag) -> None:
        tags = path.state["tag"]
        old = tags[(node, block)]
        if old is not new:
            self.assert_tag(old, new, node, block)
            tags[(node, block)] = new

    # -- interface required from subclasses ----------------------------
    def initial(self) -> dict:
        raise NotImplementedError

    def fault_ops(self, state: dict, node: int) -> list:
        raise NotImplementedError

    def do_op(self, path: _Path, node: int, rw: str, block: int) -> None:
        raise NotImplementedError

    def deliver(self, path: _Path, mid: int) -> None:
        raise NotImplementedError

    def freeze(self, state: dict, perm: tuple) -> tuple:
        raise NotImplementedError

    # -- shared skeleton ------------------------------------------------
    def base_state(self) -> dict:
        config = self.config
        nodes = config.nodes
        total = config.total_ops
        if total is None:
            total = nodes * config.ops_per_node
        return {
            "blocked": {n: False for n in range(nodes)},
            "budget": {n: config.ops_per_node for n in range(nodes)},
            "total": total,
            "chan": {},
            "local": [],
        }

    def drain_local(self, path: _Path) -> None:
        """Process synchronously-delivered (src == dst) messages."""
        while path.state["local"]:
            mid = path.state["local"].pop(0)
            self.deliver(path, mid)

    def freeze_channels(self, state: dict, perm: tuple) -> tuple:
        frozen = []
        for (src, dst, vnet), fifo in state["chan"].items():
            if not fifo:
                continue
            frozen.append((
                (perm[src], perm[dst], vnet),
                tuple(self._frozen_msg_key(mid, perm) for mid in fifo),
            ))
        return tuple(sorted(frozen))

    def _frozen_msg_key(self, mid: int, perm: tuple):
        # The path owns the message table; models stash it per freeze.
        msg = self._freeze_msgs[mid]
        payload = tuple(sorted(
            (key, perm[val] if key in _NODE_KEYS and val is not None
             else _value(val))
            for key, val in msg["payload"].items()
        ))
        return (msg["handler"], payload)

    def canonical(self, path: _Path) -> tuple:
        """Minimal frozen form over permutations of non-home nodes."""
        self._freeze_msgs = path.msgs
        others = [n for n in range(self.config.nodes) if n != self.home]
        best = None
        for perm_others in permutations(others):
            perm = list(range(self.config.nodes))
            for original, renamed in zip(others, perm_others):
                perm[original] = renamed
            frozen = self.freeze(path.state, tuple(perm))
            if best is None or frozen < best:
                best = frozen
        del self._freeze_msgs
        return best

    def freeze_base(self, state: dict, perm: tuple) -> tuple:
        return (
            tuple(sorted((perm[n], bool(blocked))
                         for n, blocked in state["blocked"].items())),
            tuple(sorted((perm[n], budget)
                         for n, budget in state["budget"].items())),
            state["total"],
            self.freeze_channels(state, perm),
        )


# ----------------------------------------------------------------------
# Stache (and, by table identity, stache-migratory conformance)
# ----------------------------------------------------------------------
class _StacheModel(_Model):
    """Twin of :class:`repro.protocols.stache.StacheProtocol`'s handler
    set over pre-faulted pages (no page faults, migrations, or
    replacements inside the bound)."""

    name = "stache"
    spec = STACHE_SPEC

    def initial(self) -> dict:
        state = self.base_state()
        nodes, blocks = self.config.nodes, self.config.blocks
        state["tag"] = {
            (n, b): Tag.READ_WRITE if n == self.home else Tag.INVALID
            for n in range(nodes) for b in range(blocks)
        }
        state["dir"] = {
            b: {"state": DirectoryState.HOME, "owner": None,
                "sharers": set(), "acks": 0, "pending": []}
            for b in range(blocks)
        }
        state["fetch"] = {}     # (node, block) -> seq
        state["req_seq"] = {}   # (block, requester) -> seq
        state["poison"] = {}    # (node, block) -> seq
        state["pending_fault"] = {}
        return state

    def freeze(self, state: dict, perm: tuple) -> tuple:
        dirs = tuple(
            (b, entry["state"].value,
             None if entry["owner"] is None else perm[entry["owner"]],
             tuple(sorted(perm[s] for s in entry["sharers"])),
             entry["acks"],
             tuple((perm[r], w) for r, w in entry["pending"]))
            for b, entry in sorted(state["dir"].items())
        )
        return self.freeze_base(state, perm) + (
            tuple(sorted(((perm[n], b), tag.value)
                         for (n, b), tag in state["tag"].items())),
            dirs,
            tuple(sorted(((perm[n], b), seq)
                         for (n, b), seq in state["fetch"].items())),
            tuple(sorted(((b, perm[r]), seq)
                         for (b, r), seq in state["req_seq"].items())),
            tuple(sorted(((perm[n], b), seq)
                         for (n, b), seq in state["poison"].items())),
            tuple(sorted((perm[n], b)
                         for n, b in state["pending_fault"].items()
                         if b is not None)),
        )

    # -- interface operations ------------------------------------------
    def fault_ops(self, state: dict, node: int) -> list:
        ops = []
        for b in range(self.config.blocks):
            tag = state["tag"][(node, b)]
            if tag is Tag.INVALID:
                ops.append(("r", b))
            if tag in (Tag.INVALID, Tag.READ_ONLY):
                ops.append(("w", b))
        return ops

    def do_op(self, path: _Path, node: int, rw: str, block: int) -> None:
        state = path.state
        want_write = rw == "w"
        dir_state = state["dir"][block]["state"]
        tag = state["tag"][(node, block)]
        path.edge(dir_state, f"fault.{'write' if want_write else 'read'}",
                  tag)
        state["blocked"][node] = True
        if node == self.home:
            # Home faults bypass the interconnect and run the directory
            # state machine synchronously.
            self._handle_request(path, block, node, want_write, None)
        else:
            self.set_tag(path, node, block, Tag.BUSY)
            state["pending_fault"][node] = block
            seq = state["fetch"].get((node, block), 0) + 1
            state["fetch"][(node, block)] = seq
            handler = "stache.get_rw" if want_write else "stache.get_ro"
            self.assert_handler(handler)
            path.send(handler, node, self.home, _REQUEST,
                      addr=block, requester=node, fetch_seq=seq)
        self.drain_local(path)

    # -- home-side directory machine -----------------------------------
    def _handle_request(self, path: _Path, block: int, requester: int,
                        want_write: bool, fetch_seq) -> None:
        state = path.state
        if requester != self.home and fetch_seq is not None:
            state["req_seq"][(block, requester)] = fetch_seq
        entry = state["dir"][block]
        if entry["state"].is_transient:
            entry["pending"].append((requester, want_write))
            return
        self._start_request(path, block, requester, want_write)

    def _start_request(self, path: _Path, block: int, requester: int,
                       want_write: bool) -> None:
        state = path.state
        entry = state["dir"][block]
        home = self.home
        if not want_write:
            if entry["state"] is DirectoryState.EXCLUSIVE:
                entry["pending"].insert(0, (requester, want_write))
                self.set_dir(path, block, DirectoryState.PENDING_WRITEBACK)
                self._send_writeback(path, block, entry["owner"], "ro")
                return
            if entry["state"] is DirectoryState.HOME and requester != home:
                self.set_tag(path, home, block, Tag.READ_ONLY)
            if requester != home:
                entry["sharers"].add(requester)
                self.set_dir(path, block, DirectoryState.SHARED)
            self._grant(path, block, requester, rw=False)
            return
        if entry["state"] is DirectoryState.EXCLUSIVE:
            if entry["owner"] == requester:
                self._grant(path, block, requester, rw=True)
                return
            entry["pending"].insert(0, (requester, want_write))
            self.set_dir(path, block, DirectoryState.PENDING_WRITEBACK)
            self._send_writeback(path, block, entry["owner"], "inv")
            return
        targets = entry["sharers"] - {requester}
        if entry["state"] is DirectoryState.SHARED and targets:
            entry["pending"].insert(0, (requester, want_write))
            self.set_dir(path, block, DirectoryState.PENDING_INVALIDATE)
            entry["acks"] = len(targets)
            if requester != home:
                self.set_tag(path, home, block, Tag.INVALID)
            for sharer in sorted(targets):
                path.incr("stache.invalidations_sent")
                self.assert_handler("stache.inval")
                path.send("stache.inval", home, sharer, _REQUEST,
                          addr=block, home=home,
                          grant_seq=state["req_seq"].get((block, sharer)))
            return
        self._finish_write_grant(path, block, requester)

    def _send_writeback(self, path: _Path, block: int, owner: int,
                        demote: str) -> None:
        self.assert_handler("stache.writeback")
        path.send("stache.writeback", self.home, owner, _REQUEST,
                  addr=block, home=self.home, demote=demote,
                  grant_seq=path.state["req_seq"].get((block, owner)))

    def _finish_write_grant(self, path: _Path, block: int,
                            requester: int) -> None:
        state = path.state
        entry = state["dir"][block]
        entry["sharers"].clear()
        entry["acks"] = 0
        if requester == self.home:
            self.set_dir(path, block, DirectoryState.HOME)
            entry["owner"] = None
        else:
            self.set_dir(path, block, DirectoryState.EXCLUSIVE)
            entry["owner"] = requester
            if state["tag"][(self.home, block)] is not Tag.INVALID:
                self.set_tag(path, self.home, block, Tag.INVALID)
        self._grant(path, block, requester, rw=True)

    def _grant(self, path: _Path, block: int, requester: int,
               rw: bool) -> None:
        state = path.state
        if requester == self.home:
            if rw:
                self.set_tag(path, self.home, block, Tag.READ_WRITE)
            elif state["tag"][(self.home, block)] is not Tag.READ_WRITE:
                self.set_tag(path, self.home, block, Tag.READ_ONLY)
            path.unblock(self.home)
        else:
            path.incr("stache.data_replies")
            self.assert_handler("stache.data")
            path.send("stache.data", self.home, requester, _RESPONSE,
                      addr=block, rw=rw, home=self.home,
                      fetch_seq=state["req_seq"].get((block, requester)))
        self._dispatch_pending(path, block)

    def _dispatch_pending(self, path: _Path, block: int) -> None:
        entry = path.state["dir"][block]
        if entry["state"].is_transient or not entry["pending"]:
            return
        requester, want_write = entry["pending"].pop(0)
        self._start_request(path, block, requester, want_write)

    # -- deliveries ----------------------------------------------------
    def deliver(self, path: _Path, mid: int) -> None:
        msg = path.msgs[mid]
        handler, payload = msg["handler"], msg["payload"]
        block, dst = payload["addr"], msg["dst"]
        path.edge(path.state["dir"][block]["state"], handler,
                  path.state["tag"][(dst, block)])
        if handler in ("stache.get_ro", "stache.get_rw"):
            self._handle_request(path, block, payload["requester"],
                                 handler == "stache.get_rw",
                                 payload["fetch_seq"])
        elif handler == "stache.inval":
            self._h_inval(path, msg)
        elif handler == "stache.writeback":
            self._h_writeback(path, msg)
        elif handler == "stache.ack":
            self._h_ack(path, msg)
        elif handler == "stache.wb_data":
            self._h_wb_data(path, msg)
        elif handler == "stache.data":
            self._h_data(path, msg)
        else:  # pragma: no cover - vocabulary enforced at send
            raise SpecDivergence(f"unmodelled handler {handler!r}")

    def _h_inval(self, path: _Path, msg: dict) -> None:
        state = path.state
        block, node = msg["payload"]["addr"], msg["dst"]
        tag = state["tag"][(node, block)]
        if tag in (Tag.READ_ONLY, Tag.READ_WRITE):
            self.set_tag(path, node, block, Tag.INVALID)
            path.incr("stache.blocks_invalidated")
        elif tag is Tag.BUSY:
            grant_seq = msg["payload"].get("grant_seq")
            if (grant_seq is not None
                    and grant_seq == state["fetch"].get((node, block))):
                state["poison"][(node, block)] = grant_seq
                path.incr("stache.grants_poisoned")
        self.assert_handler("stache.ack")
        path.send("stache.ack", node, msg["payload"]["home"], _RESPONSE,
                  addr=block, sharer=node)

    def _h_writeback(self, path: _Path, msg: dict) -> None:
        state = path.state
        block, node = msg["payload"]["addr"], msg["dst"]
        tag = state["tag"][(node, block)]
        holds = tag is Tag.READ_WRITE
        if holds:
            if msg["payload"]["demote"] == "ro":
                self.set_tag(path, node, block, Tag.READ_ONLY)
            else:
                self.set_tag(path, node, block, Tag.INVALID)
        elif tag is Tag.BUSY:
            grant_seq = msg["payload"].get("grant_seq")
            if (grant_seq is not None
                    and grant_seq == state["fetch"].get((node, block))):
                state["poison"][(node, block)] = grant_seq
                path.incr("stache.grants_poisoned")
        self.assert_handler("stache.wb_data")
        path.send("stache.wb_data", node, msg["payload"]["home"], _RESPONSE,
                  addr=block, owner=node, held=holds)

    def _h_ack(self, path: _Path, msg: dict) -> None:
        state = path.state
        block = msg["payload"]["addr"]
        entry = state["dir"][block]
        entry["sharers"].discard(msg["payload"]["sharer"])
        entry["acks"] -= 1
        if entry["acks"] < 0:
            raise SpecDivergence(f"surplus invalidation ack for {block}")
        if entry["acks"] > 0:
            return
        requester, want_write = entry["pending"].pop(0)
        if not want_write:
            raise SpecDivergence("invalidations pending for a read")
        self.set_dir(path, block, DirectoryState.HOME)
        self._finish_write_grant(path, block, requester)

    def _h_wb_data(self, path: _Path, msg: dict) -> None:
        state = path.state
        block = msg["payload"]["addr"]
        entry = state["dir"][block]
        if entry["state"] is not DirectoryState.PENDING_WRITEBACK:
            raise SpecDivergence(
                f"writeback data for block {block} in {entry['state']}"
            )
        requester, want_write = entry["pending"].pop(0)
        old_owner = msg["payload"]["owner"]
        entry["owner"] = None
        if want_write:
            self.set_dir(path, block, DirectoryState.HOME)
            entry["sharers"].clear()
            self._finish_write_grant(path, block, requester)
            return
        entry["sharers"].clear()
        if msg["payload"]["held"]:
            entry["sharers"].add(old_owner)
        if requester != self.home:
            entry["sharers"].add(requester)
            self.set_dir(path, block, DirectoryState.SHARED)
            self.set_tag(path, self.home, block, Tag.READ_ONLY)
        else:
            self.set_dir(path, block,
                         DirectoryState.SHARED if entry["sharers"]
                         else DirectoryState.HOME)
            self.set_tag(path, self.home, block,
                         Tag.READ_ONLY if entry["sharers"]
                         else Tag.READ_WRITE)
        self._grant(path, block, requester, rw=False)

    def _h_data(self, path: _Path, msg: dict) -> None:
        state = path.state
        block, node = msg["payload"]["addr"], msg["dst"]
        key = (node, block)
        seq = msg["payload"]["fetch_seq"]
        if seq != state["fetch"].get(key):
            path.incr("stache.stale_grants_dropped")
            return
        if state["poison"].get(key) == seq:
            del state["poison"][key]
            path.incr("stache.poisoned_grants_refetched")
            new_seq = state["fetch"][key] + 1
            state["fetch"][key] = new_seq
            handler = ("stache.get_rw" if msg["payload"]["rw"]
                       else "stache.get_ro")
            self.assert_handler(handler)
            path.send(handler, node, msg["payload"]["home"], _REQUEST,
                      addr=block, requester=node, fetch_seq=new_seq)
            return
        self.set_tag(path, node, block,
                     Tag.READ_WRITE if msg["payload"]["rw"]
                     else Tag.READ_ONLY)
        path.incr("stache.blocks_fetched")
        if state["pending_fault"].get(node) == block:
            state["pending_fault"][node] = None
            path.unblock(node)


# ----------------------------------------------------------------------
# DirNNB (all-hardware DASH-style directory)
# ----------------------------------------------------------------------
class _DirnnbModel(_Model):
    """Twin of :class:`repro.protocols.dirnnb.DirectoryController` plus
    the node-side cache handlers (capacity assumed ample: no victims)."""

    name = "dirnnb"
    spec = DIRNNB_SPEC

    def initial(self) -> dict:
        state = self.base_state()
        state["line"] = {
            (n, b): ("E" if n == self.home else None)
            for n in range(self.config.nodes)
            for b in range(self.config.blocks)
        }
        # The home's warm line mirrors litmus replay setup (the region
        # is initialized by the home before workers start).
        state["dir"] = {
            b: {"state": DirectoryState.EXCLUSIVE, "owner": self.home,
                "sharers": set(), "acks": 0, "pending": []}
            for b in range(self.config.blocks)
        }
        return state

    def freeze(self, state: dict, perm: tuple) -> tuple:
        dirs = tuple(
            (b, entry["state"].value,
             None if entry["owner"] is None else perm[entry["owner"]],
             tuple(sorted(perm[s] for s in entry["sharers"])),
             entry["acks"],
             tuple((perm[r], w) for r, w in entry["pending"]))
            for b, entry in sorted(state["dir"].items())
        )
        return self.freeze_base(state, perm) + (
            tuple(sorted(((perm[n], b), line)
                         for (n, b), line in state["line"].items()
                         if line is not None)),
            dirs,
        )

    def fault_ops(self, state: dict, node: int) -> list:
        ops = []
        for b in range(self.config.blocks):
            line = state["line"][(node, b)]
            if line is None:
                ops.append(("r", b))
            if line != "E":
                ops.append(("w", b))
        return ops

    def do_op(self, path: _Path, node: int, rw: str, block: int) -> None:
        state = path.state
        want_write = rw == "w"
        path.edge(state["dir"][block]["state"],
                  f"fault.{'write' if want_write else 'read'}",
                  state["line"][(node, block)])
        state["blocked"][node] = True
        self.assert_handler("dir.get")
        path.send("dir.get", node, self.home, _REQUEST,
                  addr=block, requester=node, want_write=want_write)
        self.drain_local(path)

    # -- controller ----------------------------------------------------
    def _handle_request(self, path: _Path, block: int, requester: int,
                        want_write: bool) -> None:
        entry = path.state["dir"][block]
        if entry["state"].is_transient:
            entry["pending"].append((requester, want_write))
            return
        self._start_request(path, block, requester, want_write)

    def _start_request(self, path: _Path, block: int, requester: int,
                       want_write: bool) -> None:
        entry = path.state["dir"][block]
        if not want_write:
            if entry["state"] is DirectoryState.EXCLUSIVE:
                if entry["owner"] == requester:
                    # Re-request by the owner (cannot happen within the
                    # bound: the owner's line is E, so no read faults).
                    self._grant(path, block, requester, rw=True)
                    return
                entry["pending"].insert(0, (requester, want_write))
                self.set_dir(path, block, DirectoryState.PENDING_WRITEBACK)
                self.assert_handler("dir.wb")
                path.send("dir.wb", self.home, entry["owner"], _REQUEST,
                          addr=block, home=self.home, demote="ro")
                return
            if entry["state"] is DirectoryState.HOME:
                # Exclusive-clean grant (MESI E, as in DASH).
                self.set_dir(path, block, DirectoryState.EXCLUSIVE)
                entry["owner"] = requester
                self._grant(path, block, requester, rw=True)
                return
            entry["sharers"].add(requester)
            self.set_dir(path, block, DirectoryState.SHARED)
            self._grant(path, block, requester, rw=False)
            return
        if entry["state"] is DirectoryState.EXCLUSIVE:
            if entry["owner"] == requester:
                self._grant(path, block, requester, rw=True)
                return
            entry["pending"].insert(0, (requester, want_write))
            self.set_dir(path, block, DirectoryState.PENDING_WRITEBACK)
            self.assert_handler("dir.wb")
            path.send("dir.wb", self.home, entry["owner"], _REQUEST,
                      addr=block, home=self.home, demote="inv")
            return
        targets = entry["sharers"] - {requester}
        if targets:
            entry["pending"].insert(0, (requester, want_write))
            self.set_dir(path, block, DirectoryState.PENDING_INVALIDATE)
            entry["acks"] = len(targets)
            for sharer in sorted(targets):
                self.assert_handler("dir.inval")
                path.send("dir.inval", self.home, sharer, _REQUEST,
                          addr=block, home=self.home)
            return
        self._finish_write(path, block, requester)

    def _finish_write(self, path: _Path, block: int, requester: int) -> None:
        entry = path.state["dir"][block]
        entry["sharers"].clear()
        entry["acks"] = 0
        self.set_dir(path, block, DirectoryState.EXCLUSIVE)
        entry["owner"] = requester
        self._grant(path, block, requester, rw=True)

    def _grant(self, path: _Path, block: int, requester: int,
               rw: bool) -> None:
        if requester == self.home:
            self._fill(path, requester, block, rw)
        else:
            self.assert_handler("dir.data")
            path.send("dir.data", self.home, requester, _RESPONSE,
                      addr=block, rw=rw)
        entry = path.state["dir"][block]
        if not entry["state"].is_transient and entry["pending"]:
            requester, want_write = entry["pending"].pop(0)
            self._start_request(path, block, requester, want_write)

    def _fill(self, path: _Path, node: int, block: int, rw: bool) -> None:
        path.state["line"][(node, block)] = "E" if rw else "S"
        path.unblock(node)

    # -- deliveries ----------------------------------------------------
    def deliver(self, path: _Path, mid: int) -> None:
        msg = path.msgs[mid]
        handler, payload = msg["handler"], msg["payload"]
        block, node = payload["addr"], msg["dst"]
        path.edge(path.state["dir"][block]["state"], handler,
                  path.state["line"][(node, block)])
        if handler == "dir.get":
            self._handle_request(path, block, payload["requester"],
                                 payload["want_write"])
        elif handler == "dir.data":
            self._fill(path, node, block, payload["rw"])
        elif handler == "dir.inval":
            path.state["line"][(node, block)] = None
            self.assert_handler("dir.ack")
            path.send("dir.ack", node, payload["home"], _RESPONSE,
                      addr=block, sharer=node)
        elif handler == "dir.wb":
            line = path.state["line"][(node, block)]
            held = line == "E"
            if held:
                path.state["line"][(node, block)] = (
                    "S" if payload["demote"] == "ro" else None
                )
            self.assert_handler("dir.wb_data")
            path.send("dir.wb_data", node, payload["home"], _RESPONSE,
                      addr=block, owner=node, held=held)
        elif handler == "dir.ack":
            self._h_ack(path, block, payload["sharer"])
        elif handler == "dir.wb_data":
            self._h_wb_data(path, block, payload["owner"], payload["held"])
        else:  # pragma: no cover
            raise SpecDivergence(f"unmodelled handler {handler!r}")

    def _h_ack(self, path: _Path, block: int, sharer: int) -> None:
        entry = path.state["dir"][block]
        entry["sharers"].discard(sharer)
        entry["acks"] -= 1
        if entry["acks"] < 0:
            raise SpecDivergence(f"surplus ack for block {block}")
        if entry["acks"]:
            return
        requester, want_write = entry["pending"].pop(0)
        if not want_write:
            raise SpecDivergence("invalidations pending for a read")
        self.set_dir(path, block, DirectoryState.HOME)
        self._finish_write(path, block, requester)

    def _h_wb_data(self, path: _Path, block: int, owner: int,
                   held: bool) -> None:
        entry = path.state["dir"][block]
        if entry["state"] is not DirectoryState.PENDING_WRITEBACK:
            raise SpecDivergence(
                f"writeback data for block {block} in {entry['state']}"
            )
        requester, want_write = entry["pending"].pop(0)
        entry["owner"] = None
        if want_write:
            self.set_dir(path, block, DirectoryState.HOME)
            entry["sharers"].clear()
            self._finish_write(path, block, requester)
            return
        entry["sharers"].clear()
        if held:
            entry["sharers"].add(owner)
        entry["sharers"].add(requester)
        self.set_dir(path, block, DirectoryState.SHARED)
        self._grant(path, block, requester, rw=False)


# ----------------------------------------------------------------------
# IVY (page-grain DSM, fixed distributed manager at the home)
# ----------------------------------------------------------------------
class _IvyModel(_Model):
    """Twin of :class:`repro.protocols.ivy.IvyProtocol`.  "Blocks" are
    whole pages here (page-uniform tags); the bulk page transfer is
    collapsed into the ``ivy.page_sent`` completion message."""

    name = "ivy"
    spec = IVY_SPEC

    def initial(self) -> dict:
        state = self.base_state()
        state["tag"] = {
            (n, p): Tag.READ_WRITE if n == self.home else Tag.INVALID
            for n in range(self.config.nodes)
            for p in range(self.config.blocks)
        }
        state["page"] = {
            p: {"owner": self.home, "copyset": set(), "busy": False,
                "queue": [], "acks": 0, "active": None}
            for p in range(self.config.blocks)
        }
        return state

    def freeze(self, state: dict, perm: tuple) -> tuple:
        pages = tuple(
            (p, perm[page["owner"]],
             tuple(sorted(perm[m] for m in page["copyset"])),
             page["busy"], page["acks"],
             None if page["active"] is None
             else (perm[page["active"][0]], page["active"][1]),
             tuple((perm[r], w) for r, w in page["queue"]))
            for p, page in sorted(state["page"].items())
        )
        return self.freeze_base(state, perm) + (
            tuple(sorted(((perm[n], p), tag.value)
                         for (n, p), tag in state["tag"].items())),
            pages,
        )

    def fault_ops(self, state: dict, node: int) -> list:
        ops = []
        for p in range(self.config.blocks):
            tag = state["tag"][(node, p)]
            if tag is Tag.INVALID:
                ops.append(("r", p))
            if tag in (Tag.INVALID, Tag.READ_ONLY):
                ops.append(("w", p))
        return ops

    def do_op(self, path: _Path, node: int, rw: str, page: int) -> None:
        state = path.state
        want_write = rw == "w"
        path.edge(None, f"fault.{'write' if want_write else 'read'}",
                  state["tag"][(node, page)])
        state["blocked"][node] = True
        self.assert_handler("ivy.get")
        path.send("ivy.get", node, self.home, _REQUEST,
                  addr=page, requester=node, want_write=want_write)
        self.drain_local(path)

    # -- manager -------------------------------------------------------
    def _start(self, path: _Path, page: int, request: tuple) -> None:
        state = path.state["page"][page]
        requester, want_write = request
        state["busy"] = True
        state["active"] = request
        if want_write:
            targets = state["copyset"] - {requester}
            state["acks"] = len(targets)
            for member in sorted(targets):
                path.incr("ivy.page_invalidations")
                self.assert_handler("ivy.inval")
                path.send("ivy.inval", self.home, member, _REQUEST,
                          addr=page, manager=self.home)
            if state["acks"] == 0:
                self._recall_or_grant(path, page)
            return
        self._recall_or_grant(path, page)

    def _recall_or_grant(self, path: _Path, page: int) -> None:
        state = path.state["page"][page]
        requester, want_write = state["active"]
        if state["owner"] == requester:
            self._finish(path, page)
            return
        self.assert_handler("ivy.recall")
        path.send("ivy.recall", self.home, state["owner"], _REQUEST,
                  addr=page, requester=requester, want_write=want_write,
                  manager=self.home)

    def _finish(self, path: _Path, page: int) -> None:
        state = path.state["page"][page]
        requester, want_write = state["active"]
        if want_write:
            state["copyset"].discard(requester)
            old_owner = state["owner"]
            state["owner"] = requester
            if old_owner != requester:
                state["copyset"].discard(old_owner)
        else:
            if requester != state["owner"]:
                state["copyset"].add(requester)
        self.assert_handler("ivy.grant")
        path.send("ivy.grant", self.home, requester, _RESPONSE,
                  addr=page, want_write=want_write)
        state["busy"] = False
        state["active"] = None
        if state["queue"]:
            self._start(path, page, state["queue"].pop(0))

    # -- deliveries ----------------------------------------------------
    def deliver(self, path: _Path, mid: int) -> None:
        msg = path.msgs[mid]
        handler, payload = msg["handler"], msg["payload"]
        page, node = payload["addr"], msg["dst"]
        path.edge(None, handler, path.state["tag"][(node, page)])
        state = path.state["page"][page]
        if handler == "ivy.get":
            request = (payload["requester"], payload["want_write"])
            if state["busy"]:
                state["queue"].append(request)
            else:
                self._start(path, page, request)
        elif handler == "ivy.ack":
            state["copyset"].discard(payload["member"])
            state["acks"] -= 1
            if state["acks"] < 0:
                raise SpecDivergence(f"surplus ack for page {page}")
            if state["acks"] == 0:
                self._recall_or_grant(path, page)
        elif handler == "ivy.page_sent":
            self._finish(path, page)
        elif handler == "ivy.recall":
            self.set_tag(path, node, page,
                         Tag.INVALID if payload["want_write"]
                         else Tag.READ_ONLY)
            path.incr("ivy.page_transfers")
            self.assert_handler("ivy.page_sent")
            path.send("ivy.page_sent", node, payload["manager"], _RESPONSE,
                      addr=page)
        elif handler == "ivy.inval":
            self.set_tag(path, node, page, Tag.INVALID)
            path.incr("ivy.pages_invalidated")
            self.assert_handler("ivy.ack")
            path.send("ivy.ack", node, payload["manager"], _RESPONSE,
                      addr=page, member=node)
        elif handler == "ivy.grant":
            self.set_tag(path, node, page,
                         Tag.READ_WRITE if payload["want_write"]
                         else Tag.READ_ONLY)
            path.unblock(node)
        else:  # pragma: no cover
            raise SpecDivergence(f"unmodelled handler {handler!r}")


#: Explorable protocol name -> model class.  ``migratory`` shares the
#: stache conformance tables, and ``em3d-update`` inherits the plain
#: Stache paths for ordinary shared data, so the stache corpus serves
#: both as replay input; neither needs a model of its own.
EXPLORABLE_PROTOCOLS = {
    "stache": _StacheModel,
    "dirnnb": _DirnnbModel,
    "ivy": _IvyModel,
}


# ----------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------
@dataclass
class ExplorationResult:
    """Everything one bounded exploration learned."""

    protocol: str
    config: ExploreConfig
    #: Every reachable (state, event, dst_state) edge.
    edges: set
    #: edge -> the shortest path (a finished _Path) that first took it.
    edge_paths: dict
    states: int
    transitions: int


def explore(model: _Model, config: ExploreConfig) -> ExplorationResult:
    """Breadth-first walk of the bounded transition relation."""
    root = _Path(state=model.initial())
    seen = {model.canonical(root)}
    edge_paths: dict = {}
    queue = deque([root])
    transitions = 0
    while queue:
        path = queue.popleft()
        for choice in _choices(model, path, config):
            forked = _apply(model, path, choice)
            transitions += 1
            for edge in forked.trace[-1][-1]:
                if edge not in edge_paths:
                    edge_paths[edge] = forked
            if len(forked.trace) >= config.max_steps:
                continue
            key = model.canonical(forked)
            if key not in seen:
                seen.add(key)
                queue.append(forked)
    return ExplorationResult(
        protocol=model.name, config=config, edges=set(edge_paths),
        edge_paths=edge_paths, states=len(seen), transitions=transitions,
    )


def _choices(model: _Model, path: _Path, config: ExploreConfig) -> list:
    state = path.state
    out = []
    if state["total"] > 0:
        for node in sorted(state["blocked"]):
            if state["blocked"][node] or state["budget"][node] <= 0:
                continue
            for rw, block in model.fault_ops(state, node):
                out.append(("op", node, rw, block))
    for channel in sorted(state["chan"]):
        fifo = state["chan"][channel]
        for position in range(min(len(fifo), config.max_overtake + 1)):
            out.append(("deliver", channel, position))
    return out


def _clone_state(value):
    """Fast structural clone: our model states are nests of dicts,
    lists, and sets whose leaves are immutable (ints, enums, tuples of
    scalars).  ~10x cheaper than :func:`copy.deepcopy` in the BFS hot
    loop."""
    if isinstance(value, dict):
        return {key: _clone_state(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_clone_state(val) for val in value]
    if isinstance(value, set):
        return set(value)
    return value


def _fork(path: _Path) -> _Path:
    # msgs is copy-on-write: entries are replaced wholesale at delivery,
    # never mutated in place, so a shallow dict copy shares safely.
    return _Path(
        state=_clone_state(path.state),
        trace=list(path.trace),
        msgs=dict(path.msgs),
        next_mid=path.next_mid,
        counters=dict(path.counters),
    )


def _apply(model: _Model, path: _Path, choice) -> _Path:
    forked = _fork(path)
    if choice[0] == "op":
        _, node, rw, block = choice
        forked.state["budget"][node] -= 1
        forked.state["total"] -= 1
        step = ("op", node, rw, block)
        model.do_op(forked, node, rw, block)
    else:
        _, channel, position = choice
        mid = forked.state["chan"][channel].pop(position)
        if not forked.state["chan"][channel]:
            del forked.state["chan"][channel]
        forked.msgs[mid] = {**forked.msgs[mid],
                            "deliver_step": len(forked.trace)}
        step = ("deliver", mid)
        model.deliver(forked, mid)
        model.drain_local(forked)
    forked.trace.append(
        step + (frozenset(forked.step_unblocked), tuple(forked.step_edges))
    )
    return forked


def explore_protocol(name: str,
                     config: ExploreConfig | None = None) -> ExplorationResult:
    """Explore one protocol by registry name."""
    if name not in EXPLORABLE_PROTOCOLS:
        raise ValueError(
            f"no exploration model for {name!r} "
            f"(have {sorted(EXPLORABLE_PROTOCOLS)})"
        )
    model = EXPLORABLE_PROTOCOLS[name](config or ExploreConfig())
    return explore(model, model.config)


# ----------------------------------------------------------------------
# Trace -> pinned litmus case
# ----------------------------------------------------------------------
@dataclass
class SynthesizedCase:
    """One concrete litmus test: program + deterministic schedule."""

    protocol: str
    name: str
    nodes: int
    blocks: int
    #: node -> ordered [(op, block_index, at_cycle)] with op in
    #: {"r", "w"}; the worker idles until ``at_cycle`` before issuing,
    #: which pins each access *between* the delivery slots surrounding
    #: it in the explored trace (this is what sequences home-node
    #: operations, whose effects are local and instantaneous).
    programs: dict
    #: ScriptedFaultPlan rules as plain dicts (handler/src/dst/
    #: occurrence/action/delay).
    schedule: list
    #: Edges this case covers, as [[state, event, dst_state], ...].
    edges: list
    #: Model counters along the trace (e.g. stache.grants_poisoned);
    #: family-specific replay tests assert the interesting ones.
    expect_stats: dict
    #: Human-readable trace, one line per step (documentation only).
    trace: list


def _emit_case(protocol: str, path: _Path, index: int,
               config: ExploreConfig) -> SynthesizedCase:
    """Pin one explored path as a concrete schedule.

    Every delivery step is assigned a target slot ``SCHEDULE_STRIDE``
    cycles after the previous one; each remote message gets a delay rule
    stretching its flight to its slot, plus a ``reorder`` action when it
    must overtake an earlier send on its own FIFO channel.  Messages the
    path left in flight are parked after the last slot (in send order),
    so the pinned prefix replays before the tail drains.
    """
    step_time: dict[int, int] = {}
    deliveries = 0
    programs: dict[int, list] = {n: [] for n in range(config.nodes)}
    lines = []
    for index_step, step in enumerate(path.trace):
        if step[0] == "op":
            _, node, rw, block, _unblocked, _edges = step
            # Issue halfway between the surrounding delivery slots, so
            # the access lands exactly where the trace interleaved it.
            at = deliveries * SCHEDULE_STRIDE + SCHEDULE_STRIDE // 2
            step_time[index_step] = at
            programs[node].append((rw, block, at))
            lines.append(f"node{node}: {'write' if rw == 'w' else 'read'} "
                         f"block {block} at {at}")
        else:
            _, mid, _unblocked, _edges = step
            deliveries += 1
            step_time[index_step] = deliveries * SCHEDULE_STRIDE
            msg = path.msgs[mid]
            lines.append(f"deliver {msg['handler']} "
                         f"node{msg['src']} -> node{msg['dst']}")

    # Target arrival per remote message (trace order, then parked tail).
    targets: dict[int, int] = {}
    tail = deliveries
    for mid in sorted(path.msgs):
        msg = path.msgs[mid]
        if msg["src"] == msg["dst"]:
            continue
        if msg["deliver_step"] is not None:
            targets[mid] = step_time[msg["deliver_step"]]
        else:
            tail += 1
            targets[mid] = tail * SCHEDULE_STRIDE

    # A message overtakes when an earlier send on its channel arrives
    # later: it must bypass the channel's FIFO floor ("reorder").
    overtakes = set()
    by_channel: dict[tuple, list] = {}
    for mid in sorted(targets):
        msg = path.msgs[mid]
        by_channel.setdefault(
            (msg["src"], msg["dst"], msg["vnet"]), []
        ).append(mid)
    for mids in by_channel.values():
        for i, mid in enumerate(mids):
            if any(targets[earlier] > targets[mid] for earlier in mids[:i]):
                overtakes.add(mid)

    occurrence: dict[tuple, int] = {}
    schedule = []
    for mid in sorted(targets):
        msg = path.msgs[mid]
        key = (msg["handler"], msg["src"], msg["dst"])
        occurrence[key] = occurrence.get(key, 0) + 1
        delay = targets[mid] - step_time[msg["send_step"]]
        if delay <= 0 and mid not in overtakes:
            continue
        schedule.append({
            "handler": msg["handler"],
            "src": msg["src"],
            "dst": msg["dst"],
            "occurrence": occurrence[key],
            "action": "reorder" if mid in overtakes else None,
            "delay": max(delay, 0),
        })

    edges = sorted({edge for step in path.trace for edge in step[-1]},
                   key=_edge_sort_key)
    return SynthesizedCase(
        protocol=protocol,
        name=f"{protocol}-{index:03d}",
        nodes=config.nodes,
        blocks=config.blocks,
        programs={n: ops for n, ops in programs.items() if ops},
        schedule=schedule,
        edges=[list(edge) for edge in edges],
        expect_stats=dict(sorted(path.counters.items())),
        trace=lines,
    )


def synthesize_corpus(name: str,
                      configs: tuple[ExploreConfig, ...] = (
                          ExploreConfig(nodes=3, blocks=1, ops_per_node=2,
                                        total_ops=4),
                          ExploreConfig(nodes=2, blocks=2, ops_per_node=1),
                      )) -> tuple[list[SynthesizedCase], ExplorationResult]:
    """Explore ``name`` under each bound and greedily cover its edges.

    Returns the chosen cases plus the (merged-bounds) exploration result
    whose edge set is the coverage obligation.  Greedy set cover over
    shortest-first candidate traces keeps the corpus small while the
    union of case edges equals every reachable edge — the property
    ``tests/litmus/test_corpus.py`` asserts.
    """
    merged_edges: dict = {}
    results = []
    for config in configs:
        result = explore_protocol(name, config)
        results.append(result)
        for edge, path in result.edge_paths.items():
            known = merged_edges.get(edge)
            if known is None or len(path.trace) < len(known[0].trace):
                merged_edges[edge] = (path, config)
    # Candidate cases: the distinct shortest paths, each scored by the
    # full edge set its trace exercises (not just the edges it is the
    # canonical shortest witness for).
    candidates: dict[int, tuple] = {}
    for path, config in merged_edges.values():
        if id(path) not in candidates:
            trace_edges = {e for step in path.trace for e in step[-1]}
            candidates[id(path)] = (path, config, trace_edges)
    uncovered = set(merged_edges)
    chosen = []
    pool = list(candidates.values())
    while uncovered:
        pool.sort(key=lambda entry: (-len(entry[2] & uncovered),
                                     len(entry[0].trace)))
        path, config, edges = pool.pop(0)
        if not edges & uncovered:  # pragma: no cover - cover progresses
            raise RuntimeError("set cover stalled")
        uncovered -= edges
        chosen.append((path, config))
    cases = [
        _emit_case(name, path, index, config)
        for index, (path, config) in enumerate(chosen)
    ]
    primary = results[0]
    primary.edges = set(merged_edges)
    primary.edge_paths = {e: p for e, (p, _c) in merged_edges.items()}
    return cases, primary
