"""A decoupled node: software access control, handlers on a second CPU.

The node implements the same :class:`~repro.tempest.interface.Tempest`
backend surface as the other backends, so user-level protocol libraries
load unchanged.  It is the middle point of the paper's design space:

* **Tag checks** are inserted code, exactly as on Blizzard: each checked
  load/store pays the configured software check cost (0 for loads under
  the ECC trick).
* **No inserted polls.**  Unlike Blizzard, the compute CPU never polls
  the network — the *handler processor* (a second commodity CPU per
  node) watches it, running a software dispatch loop that polls an
  inbox and executes protocol handlers concurrently with computation.
  Handler instruction counts are charged to the handler processor's own
  timeline, so handler work overlaps compute work, as on Typhoon — but
  every dispatch pays the polling loop's notice latency plus a software
  dispatch sequence instead of the NP's hardware-assisted capture.
* **Fault handling** is Typhoon-shaped: a faulting access suspends the
  compute thread and enqueues the fault to the handler processor; the
  handler's ``resume`` restarts the thread.

:class:`DecoupledNode` runs the CPU access path every Tempest backend
shares (:class:`~repro.tempest.node.TempestNode`) with this backend's
data — the inserted check costs, no poll, faults to the handler
processor — and adds only the handler processor itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import DecoupledCosts
from repro.tempest.dispatch import HandlerDispatcher
from repro.tempest.node import TempestNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.decoupled.system import DecoupledMachine


class HandlerProcessor(HandlerDispatcher):
    """One node's second CPU: the shared dispatch loop, run in software.

    The software analogue of Typhoon's
    :class:`~repro.typhoon.np.NetworkProcessor`: serial,
    run-to-completion, same work priority (response network first, then
    captured faults, then requests — the Section 5.1 deadlock-avoidance
    discipline), same occupancy accounting.  What differs is the
    dispatch cost — ``poll_notice_cycles + dispatch_cycles`` of software
    loop per work item instead of hardware-assisted capture — and the
    absence of the NP's hardware plumbing (no NP TLB, no RTLB, no BAF
    bound, no finite send queues: sends go straight to the interconnect,
    as on any commodity node).  Fault injection's receive bound and
    stall windows apply as on the NP.
    """

    def __init__(self, node: "DecoupledNode", costs: DecoupledCosts):
        super().__init__(
            node, costs, "hp",
            message_overhead=costs.poll_notice_cycles + costs.dispatch_cycles,
            count_handlers=True,
        )


class DecoupledNode(TempestNode):
    """CPU + cache + TLB + software Tempest; handlers on a second CPU."""

    def __init__(self, node_id: int, machine: "DecoupledMachine"):
        self.costs = costs = machine.config.decoupled
        # No inserted poll — the handler processor watches the network —
        # so a checked shared reference is just inserted check + hit.
        super().__init__(node_id, machine,
                         check_read_cycles=costs.check_read_cycles,
                         check_write_cycles=costs.check_write_cycles)
        # The second CPU: the NP-shaped object protocols program against,
        # and the interconnect's sink for this node.  Sends go straight
        # to the interconnect, as on any commodity node.
        self.hp = HandlerProcessor(self, costs)
        self._messages_sent_key = f"{self._prefix}.hp.messages_sent"
        self._connect(self.hp, self.hp.enqueue_message)

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan to the handler processor."""
        self.hp.install_faults(plan)
