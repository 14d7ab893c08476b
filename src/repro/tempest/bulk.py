"""Bulk node-to-node data transfer (paper Sections 2.2 and 5.2).

A transfer is initiated like a DMA: source and destination virtual
addresses plus a length.  The NP packetizes the data — a maximum-size
twenty-word packet carries a handler word, an address, 64 bytes of data,
and two words to spare — and streams the packets asynchronously with
respect to the computation thread.  The destination handler force-writes
each chunk; when every chunk has arrived it sends one completion message
back, which resolves the future the initiator received.

Because both the send and receive sides are user-level handlers, callers
can customize them (the paper points at scatter-gather); the engine here
implements the plain contiguous case protocols and applications need.
"""

from __future__ import annotations

import itertools

from repro.network.message import Message, VirtualNetwork
from repro.sim.process import Future

#: Data bytes per maximum-size packet (Section 5.2: 64 bytes of data).
CHUNK_BYTES = 64

#: NP instruction charges per packet end (calibrated: comparable to the
#: data-arrival path of Section 6, which also moves a block and updates
#: bookkeeping).
SEND_INSTRUCTIONS = 12
RECV_INSTRUCTIONS = 20

_transfer_ids = itertools.count()


class BulkTransferEngine:
    """Per-node engine driving outgoing and incoming bulk transfers."""

    DATA_HANDLER = "__bulk.data"
    DONE_HANDLER = "__bulk.done"

    def __init__(self, backend):
        self.backend = backend
        self._pending: dict[int, Future] = {}      # transfers we initiated
        self._incoming: dict[int, dict] = {}       # transfers arriving here
        # Like the protocol handlers, the bulk handlers are not
        # idempotent (a duplicated done message would double-resolve the
        # future; a duplicated chunk would over-count received): guard
        # them against lossy-transport redelivery the same way.
        from repro.tempest.messaging import DeliveryGuard

        guard = DeliveryGuard(
            getattr(backend, "stats", None),
            f"node{backend.node_id}.bulk.duplicates_dropped",
        )
        backend.registry.register(
            self.DATA_HANDLER, guard.wrap(self._on_data), RECV_INSTRUCTIONS
        )
        backend.registry.register(
            self.DONE_HANDLER, guard.wrap(self._on_done), SEND_INSTRUCTIONS
        )

    # ------------------------------------------------------------------
    # Initiator side
    # ------------------------------------------------------------------
    def start(self, dst: int, src_vaddr: int, dst_vaddr: int,
              nbytes: int) -> Future:
        """Begin a transfer; returns the completion future."""
        if nbytes <= 0:
            raise ValueError(f"transfer length must be positive, got {nbytes}")
        transfer_id = next(_transfer_ids)
        done = Future(self.backend.engine)
        self._pending[transfer_id] = done

        chunks = []
        offset = 0
        while offset < nbytes:
            length = min(CHUNK_BYTES, nbytes - offset)
            chunks.append((offset, length))
            offset += length

        # The data-transfer thread suspends itself at intervals so it does
        # not tie up the NP (Section 5.2); we model that by spacing packet
        # injections one packet per SEND_INSTRUCTIONS cycles.
        for index, (offset, length) in enumerate(chunks):
            self.backend.engine.schedule(
                index * SEND_INSTRUCTIONS,
                self._send_chunk,
                dst, src_vaddr, dst_vaddr, offset, length,
                transfer_id, len(chunks),
            )
        return done

    def _send_chunk(self, dst, src_vaddr, dst_vaddr, offset, length,
                    transfer_id, total_chunks) -> None:
        words = {}
        for byte in range(0, length, 4):
            addr = src_vaddr + offset + byte
            value = self.backend.image.read(addr, default=None)
            if value is not None:
                words[byte] = value
        self.backend.send_message(
            Message(
                src=self.backend.node_id,
                dst=dst,
                handler=self.DATA_HANDLER,
                vnet=VirtualNetwork.REQUEST,
                size_words=2 + (length + 3) // 4 + 2,
                payload={
                    "transfer_id": transfer_id,
                    "dst_vaddr": dst_vaddr,
                    "offset": offset,
                    "words": words,
                    "total_chunks": total_chunks,
                    "reply_to": self.backend.node_id,
                },
            )
        )

    # ------------------------------------------------------------------
    # Destination side
    # ------------------------------------------------------------------
    def _on_data(self, tempest, message: Message) -> None:
        payload = message.payload
        state = self._incoming.setdefault(
            payload["transfer_id"], {"received": 0}
        )
        base = payload["dst_vaddr"] + payload["offset"]
        for byte_offset, value in payload["words"].items():
            tempest.force_write(base + byte_offset, value)
        state["received"] += 1
        if state["received"] == payload["total_chunks"]:
            del self._incoming[payload["transfer_id"]]
            tempest.send(
                payload["reply_to"],
                self.DONE_HANDLER,
                vnet=VirtualNetwork.RESPONSE,
                size_words=3,
                transfer_id=payload["transfer_id"],
            )

    def _on_done(self, tempest, message: Message) -> None:
        done = self._pending.pop(message.payload["transfer_id"])
        done.resolve(None)
