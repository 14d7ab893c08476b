"""Messages: the unit of network communication.

Tempest messages are *active messages* (Section 2.1): a destination node,
a handler, and data.  On Typhoon, the first payload word is the receive
handler PC; a maximum-size packet is twenty 32-bit words — handler PC +
32-bit address + 64 bytes of data "with two words to spare" (Section 5.2).

Here a message carries a handler *name* (dispatched through the receiving
node's handler registry, which is the moral equivalent of a PC) plus a
payload dictionary.  ``size_words`` is accounted explicitly so the packet
limit can be enforced and bandwidth statistics collected.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


class VirtualNetwork(enum.IntEnum):
    """The two independent virtual networks (deadlock avoidance).

    A pure request/response protocol is deadlock-free if requests travel
    on one network and responses can always be processed; the NP scheduler
    gives the request network lower priority (Section 5.1).
    """

    REQUEST = 0
    RESPONSE = 1


class PacketTooLarge(ValueError):
    """Payload exceeds the maximum packet size; callers must packetize."""


_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One network packet."""

    src: int
    dst: int
    handler: str
    vnet: VirtualNetwork = VirtualNetwork.REQUEST
    payload: dict[str, Any] = field(default_factory=dict)
    size_words: int = 2  # handler word + one argument word, minimum
    msg_id: int = field(default_factory=_message_ids.__next__)
    send_time: float = 0
    #: Reliable-transport transaction id; assigned on first injection when
    #: a fault plan is active (None on a perfectly reliable network).
    xid: int | None = None
    #: Delivery attempt number (1 = original send; retransmits increment).
    attempt: int = 1
    #: Set by a receiver that refused the packet (queue bound exceeded) so
    #: the interconnect knows delivery did not constitute receipt.
    nacked: bool = False
    #: Invoked at delivery (send-queue credit return); set by senders that
    #: model finite injection queues.
    on_delivered: Callable[["Message"], None] | None = field(
        default=None, repr=False, compare=False
    )

    def validated(self, max_payload_words: int) -> "Message":
        if self.size_words > max_payload_words:
            raise PacketTooLarge(
                f"{self.size_words} words exceeds the "
                f"{max_payload_words}-word packet limit"
            )
        return self

    @property
    def is_local(self) -> bool:
        """Local sends short-circuit the network (Section 5.1)."""
        return self.src == self.dst

    def __repr__(self) -> str:
        return (
            f"Message(#{self.msg_id} {self.src}->{self.dst} "
            f"{self.handler} on {self.vnet.name})"
        )


#: Handler name of the NI-level negative acknowledgement a bounded
#: receive queue returns to the sender's reliable transport.  Intercepted
#: by the interconnect at delivery; never dispatched to an NP handler.
NACK_HANDLER = "net.nack"

#: Words occupied by a full 32-byte data block in a packet.
BLOCK_WORDS = 8

#: Conventional packet cost of a protocol request: handler + address + misc.
REQUEST_WORDS = 3

#: Conventional packet cost of a data-carrying response:
#: handler + address + 8 data words + status.
DATA_WORDS = 2 + BLOCK_WORDS + 1
