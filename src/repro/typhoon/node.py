"""One Typhoon node: CPU, caches, TLB, tagged memory, and NP (Figure 1).

The node implements the :class:`~repro.tempest.interface.TempestBackend`
protocol — it is the hardware under the Tempest facade.  Its CPU access
path is :class:`~repro.tempest.node.TempestNode`'s, with Typhoon's data:

* access control is in hardware, so a reference pays no inserted check
  and a hit, private or shared, costs the bare cache hit;
* a miss becomes a bus transaction the NP monitors.  A **block access
  fault** makes the NP inhibit memory, nack the transaction, mask the
  CPU's bus request (the thread suspends), and capture the fault in the
  BAF buffer for user-level handling (Section 5.4).  ``resume`` unmasks
  the request line and the access retries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tempest.node import TempestNode
from repro.typhoon.np import NetworkProcessor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.system import TyphoonMachine


class TyphoonNode(TempestNode):
    """CPU + L1 + TLB + NP + DRAM, assembled per Figure 1."""

    def __init__(self, node_id: int, machine: "TyphoonMachine"):
        super().__init__(node_id, machine)
        np = NetworkProcessor(self, machine.config.typhoon)
        # Every send goes through the NP's send queues, which also count
        # it: binding the backend surface straight to the NP keeps
        # Tempest.send one call away from it.
        self.send_message = np.send
        self._connect(np, np.enqueue_message)

    def shoot_down_page(self, vaddr: int) -> None:
        """TLB shoot-down after unmap/remap: CPU TLB and NP reverse TLB."""
        super().shoot_down_page(vaddr)
        self.np.rtlb.shoot_down(vaddr)

    def install_faults(self, plan) -> None:
        """Node-level fault injection lives in the NP (queues, stalls)."""
        self.np.install_faults(plan)
