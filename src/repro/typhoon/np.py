"""The network interface processor (NP), paper Sections 5.1 and 5.4.

The NP runs the shared handler-dispatch loop
(:class:`~repro.tempest.dispatch.HandlerDispatcher`: response network
first, then the block access fault (BAF) buffer, then requests, each
handler run to completion) with Typhoon's hardware around it:

* dispatch is hardware-assisted, so a message costs only its handler's
  instructions, and a captured fault adds ``baf_dispatch_cycles``;
* message handlers that name an address go through the NP TLB, and
  fault handlers through the reverse TLB, each adding its miss penalty;
* the BAF buffer may be bounded (fault injection), and the send side has
  finite per-virtual-network queues with a transparent overflow buffer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.memory.tlb import Tlb
from repro.network.message import Message
from repro.sim.config import TlbConfig, TyphoonCosts
from repro.tempest.dispatch import DispatchError, HandlerDispatcher
from repro.typhoon.rtlb import ReverseTlb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.node import TyphoonNode

__all__ = ["DispatchError", "NetworkProcessor"]


class NetworkProcessor(HandlerDispatcher):
    """One node's NP: the dispatch loop plus the NP's TLBs and send queues."""

    def __init__(self, node: "TyphoonNode", costs: TyphoonCosts):
        super().__init__(node, costs, "np",
                         fault_overhead=costs.baf_dispatch_cycles)
        self.np_tlb = Tlb(
            TlbConfig(entries=costs.np_tlb_entries, miss_cycles=costs.np_tlb_miss),
            name="np_tlb",
        )
        self.rtlb = ReverseTlb(costs.rtlb_entries, costs.rtlb_miss, node.layout)
        self._np_tlb_access = self.np_tlb.access
        self._np_tlb_miss = costs.np_tlb_miss
        self._rtlb_probe = self.rtlb.probe

        # Section 5.1 send-side plumbing: finite per-vnet send queues with
        # a transparent overflow buffer so handlers never block on space.
        self._messages_sent_key = f"{self._prefix}.messages_sent"
        self._overflowed_key = f"{self._prefix}.sends_overflowed"
        self._overflow_peak_key = f"{self._prefix}.overflow_peak"
        self._in_flight: dict[int, int] = {0: 0, 1: 0}
        self._overflow: deque[Message] = deque()
        self._send_depth = costs.send_queue_depth
        self._credit = self._on_delivered
        self._interconnect = node.machine.interconnect

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's node-level bounds and stall windows."""
        super().install_faults(plan)
        spec = plan.spec
        self._baf_limit = spec.baf_limit
        if spec.send_queue_depth is not None:
            self._send_depth = spec.send_queue_depth

    # ------------------------------------------------------------------
    # Sending (finite send queues + overflow buffer, Section 5.1)
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Count and inject a packet, or park it in the overflow buffer
        if the virtual network's send queue is full.

        "If a send queue fills, the hardware will redirect further stores
        to this buffer transparently.  This guarantees that any handler,
        once started, can run to completion without waiting for a send
        queue to empty.  The user buffer is drained into the network by
        software as queue space becomes available."
        """
        self._counters[self._messages_sent_key] += 1
        vnet = message.vnet
        if self._in_flight[vnet] >= self._send_depth:
            self._overflow.append(message)
            self._counters[self._overflowed_key] += 1
            self.stats.set_max(self._overflow_peak_key, len(self._overflow))
            return
        self._in_flight[vnet] += 1
        message.on_delivered = self._credit
        self._interconnect.send(message)

    def _launch(self, message: Message) -> None:
        message.on_delivered = self._credit
        self._interconnect.send(message)

    def _on_delivered(self, message: Message) -> None:
        """Credit return: queue space freed; drain the overflow buffer."""
        self._in_flight[message.vnet] -= 1
        if not self._overflow:
            return
        for index, waiting in enumerate(self._overflow):
            vnet = waiting.vnet
            if self._in_flight[vnet] < self._send_depth:
                del self._overflow[index]
                # Reserve the slot immediately so a concurrent credit
                # cannot oversubscribe it; the software drain takes a few
                # cycles to move the packet into the queue.
                self._in_flight[vnet] += 1
                self.engine.schedule(
                    self.costs.overflow_drain_cycles, self._launch, waiting
                )
                break
