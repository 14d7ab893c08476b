"""A second custom-protocol case study: migratory-sharing optimization.

The paper's closing argument (Section 4) is that "system designers cannot
anticipate the full range of protocols that programmers and compilers
will devise" — EM3D's delayed-update protocol is its one worked example.
This module supplies a second, for the *other* problematic pattern in the
benchmark set: MP3D's migratory read-modify-write sharing, where a datum
is read then written by one processor after another.  Under plain Stache
each migration costs two transactions (a read fetch demoting the old
owner, then an upgrade invalidating it); the classic optimization
(Cox & Fowler / Stenstrom et al., ISCA 1993) detects the pattern and
grants *exclusive* ownership on the read, folding the pair into one.

Everything runs in user-level handlers on unmodified Tempest mechanisms,
which is precisely the point:

* **Detection** (at the home): a write request that upgrades the block's
  sole sharer increments a per-block score; two such upgrades mark the
  block migratory.
* **Exploitation**: read requests for a migratory block are served as
  exclusive grants, so the follow-up write hits locally.
* **Self-correction**: each migratory read grant is a *probe* — when the
  block is next recalled from that node, the writeback reply says whether
  the node actually wrote it (the M-vs-E bit an ownership bus provides).
  A probe that comes back clean means the block was not migratory after
  all; the score resets and the block reverts to normal read sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.tags import AccessFault
from repro.network.message import Message
from repro.protocols.stache import StacheProtocol
from repro.tempest.interface import Tempest

#: Sole-sharer upgrades needed before a block is treated as migratory.
MIGRATORY_THRESHOLD = 2


@dataclass
class _MigratoryState:
    """Per-block detection state kept beside the home directory entry."""

    score: int = 0
    migratory: bool = False
    last_writer: int | None = None
    #: Nodes holding an exclusive-for-read grant we have not verified yet.
    probes: set[int] = field(default_factory=set)


class MigratoryProtocol(StacheProtocol):
    """Stache plus migratory detection and exclusive-on-read grants."""

    name = "stache-migratory"

    def __init__(self) -> None:
        super().__init__()
        # (home node, block) -> detection state.
        self._mig: dict[tuple[int, int], _MigratoryState] = {}

    def _mig_state(self, home: int, block: int) -> _MigratoryState:
        state = self._mig.get((home, block))
        if state is None:
            state = self._mig[(home, block)] = _MigratoryState()
        return state

    # ------------------------------------------------------------------
    def _h_get(self, tempest: Tempest, message: Message) -> None:
        payload = message.payload
        super()._h_get(tempest, message, self._judge(
            tempest, payload["addr"], payload["requester"],
            message.handler == self.GET_RW))

    def _f_home(self, tempest: Tempest, fault: AccessFault) -> None:
        # The home's own request is never promoted: only judged.
        self._judge(tempest, fault.block_addr, tempest.node_id, fault.is_write)
        super()._f_home(tempest, fault)

    def _judge(self, tempest: Tempest, block: int, requester: int,
               want_write: bool) -> bool:
        """Run the detector on a request at the home; returns whether to
        grant it exclusive."""
        state = self._mig_state(tempest.node_id, block)
        if want_write:
            self._note_write_request(tempest, block, requester, state)
        elif state.migratory and requester != tempest.node_id:
            # Serve the read as an exclusive grant (one transaction
            # instead of read-then-upgrade) and remember to verify it.
            state.probes.add(requester)
            want_write = True
            tempest.stats.incr("migratory.exclusive_read_grants")
        return want_write

    def _note_write_request(self, tempest: Tempest, block: int,
                            requester: int, state: _MigratoryState) -> None:
        """Detection (Stenstrom et al.): the write request comes from a
        reader of the block while the only other copy belongs to the
        previous writer — read-then-write ping-pong."""
        entry = self._dir_entry(tempest, block)
        if entry.state.is_transient or requester == tempest.node_id:
            return  # transients are judged when replayed
        sharers = entry.sharers()
        sole_sharer_upgrade = sharers == {requester}
        handoff_upgrade = (
            len(sharers) == 2
            and requester in sharers
            and state.last_writer is not None
            and state.last_writer != requester
            and state.last_writer in sharers
        )
        if not (sole_sharer_upgrade or handoff_upgrade):
            return
        state.score += 1
        if not state.migratory and state.score >= MIGRATORY_THRESHOLD:
            state.migratory = True
            tempest.stats.incr("migratory.blocks_marked")

    def _finish_write_grant(self, tempest: Tempest, block: int, entry,
                            requester: int) -> None:
        self._mig_state(tempest.node_id, block).last_writer = requester
        super()._finish_write_grant(tempest, block, entry, requester)

    # ------------------------------------------------------------------
    def _h_wb_data(self, tempest: Tempest, message: Message) -> None:
        """Verify outstanding probes before the base protocol proceeds."""
        block = message.payload["addr"]
        owner = message.payload["owner"]
        state = self._mig_state(tempest.node_id, block)
        if owner in state.probes:
            state.probes.discard(owner)
            if message.payload["held"] and not message.payload["wrote"]:
                # The exclusive-for-read grant was never written: this is
                # read sharing, not migration.  Revert.
                state.migratory = False
                state.score = 0
                tempest.stats.incr("migratory.mispredictions")
        super()._h_wb_data(tempest, message)

    def _h_repl_dirty(self, tempest: Tempest, message: Message) -> None:
        # A replacement writeback confirms the grant was written.
        state = self._mig_state(tempest.node_id, message.payload["addr"])
        state.probes.discard(message.payload["owner"])
        super()._h_repl_dirty(tempest, message)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def is_migratory(self, home: int, block: int) -> bool:
        state = self._mig.get((home, block))
        return state.migratory if state else False
