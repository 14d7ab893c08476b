"""Whole-machine assembly for Typhoon.

A :class:`TyphoonMachine` is the simulated analogue of Figure 1: N
homogeneous nodes on a point-to-point network, each with an NP.  A
user-level protocol (Stache, or a custom one) is *installed* onto the
machine — it registers its message and fault handlers on every node,
exactly as linking against the Stache runtime library does in the paper.
"""

from __future__ import annotations

from repro.machine import TempestMachine
from repro.tempest.port import CostDomain
from repro.typhoon.node import TyphoonNode


class TyphoonMachine(TempestMachine):
    """N Typhoon nodes plus interconnect; runs user-level protocols."""

    system_name = "typhoon"
    node_class = TyphoonNode
    cost_domain = CostDomain.from_typhoon

    def use_software_barrier(self, coordinator: int = 0) -> None:
        """Replace the hardware barrier network with a message-built one.

        For machines without a CM-5-style control network (and for the
        barrier-cost ablation): applications' ``ctx.barrier()`` then runs
        over active messages (`repro.tempest.swbarrier`).
        """
        from repro.tempest.swbarrier import SoftwareBarrier

        self.barrier = SoftwareBarrier(self.tempests, coordinator=coordinator)
