"""Whole-machine assembly for the decoupled software-handler backend.

A :class:`DecoupledMachine` is N dual-processor commodity nodes on a
point-to-point network: each node's compute CPU runs the application
with Blizzard-style inserted access checks, and its handler processor
runs the protocol library concurrently (see
:mod:`repro.decoupled.node`).  Because handlers make progress without
the compute thread's cooperation, the machine keeps
:class:`~repro.machine.MachineBase`'s bare-future ``wait`` — the
``decoupled-handlers`` guarantee that legalises protocols (like the
em3d update protocol) whose handlers must run while the compute thread
blocks.
"""

from __future__ import annotations

from repro.decoupled.node import DecoupledNode
from repro.machine import TempestMachine
from repro.tempest.port import CostDomain


class DecoupledMachine(TempestMachine):
    """N decoupled nodes plus interconnect; runs user-level protocols."""

    system_name = "decoupled"
    node_class = DecoupledNode
    cost_domain = CostDomain.from_decoupled
