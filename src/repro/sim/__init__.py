"""Discrete-event simulation kernel.

This subpackage is the substrate every other layer runs on.  It plays the
role the Wisconsin Wind Tunnel played for the paper: it advances a global
simulated clock measured in **processor cycles** and coordinates the
per-node computation threads, protocol handlers, and network messages.

Unlike the Wind Tunnel we do not direct-execute SPARC binaries.  Instead,
application code runs as Python generators that *yield* costs and blocking
operations (see :mod:`repro.sim.process`), and only events that would leave
a node — misses, faults, messages, barriers — enter the event queue.  Cache
and TLB hits are serviced inline by the issuing node, which is what makes a
32-node cycle-level protocol study feasible in CPython.
"""

from repro.sim.config import (
    CacheConfig,
    DirNNBCosts,
    MachineConfig,
    NetworkConfig,
    ScaleModel,
    TlbConfig,
    TyphoonCosts,
)
from repro.sim.engine import Engine
from repro.sim.process import Future, Process
from repro.sim.rng import RngStreams
from repro.sim.stats import Stats

__all__ = [
    "CacheConfig",
    "DirNNBCosts",
    "Engine",
    "Future",
    "MachineConfig",
    "NetworkConfig",
    "Process",
    "RngStreams",
    "ScaleModel",
    "Stats",
    "TlbConfig",
    "TyphoonCosts",
]
