"""Common machine assembly shared by every backend.

A *machine* owns the simulation engine, the statistics registry, the
shared-segment heap, the interconnect, and the barrier network, and builds
one node per processor.  The two target systems of Section 6 —
Typhoon running user-level protocols, and the all-hardware DirNNB
system — are both machines; applications run unchanged on either
(the paper: "Unaltered shared-memory programs are simply re-linked with
the Stache runtime library").  :class:`TempestMachine` is the assembly
of the three Tempest backends, which differ only in data (their node
model and cost domain) and, on Blizzard, in how a blocked CPU waits.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.memory.address import AddressLayout
from repro.memory.allocator import GlobalHeap
from repro.network.interconnect import BarrierNetwork, Interconnect
from repro.network.topology import make_topology
from repro.sim.config import MachineConfig
from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.stats import Stats
from repro.tempest.port import CostDomain


class MachineBase:
    """Engine + interconnect + heap + nodes; subclasses add the node type."""

    #: Human-readable protocol/system name (subclasses override).
    system_name = "base"
    #: Whether a node's CPU may commit hits ahead of the clock (see
    #: repro.memory.lane); off where nodes share state hits touch.
    cpu_lookahead = True

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.engine = Engine()
        self.stats = Stats()
        self.rng = RngStreams(config.seed)
        self.layout = AddressLayout(config.block_size, config.page_size)
        self.heap = GlobalHeap(self.layout, config.nodes)
        topology = make_topology(
            config.network.topology,
            config.nodes,
            config.network.latency,
            config.network.mesh_per_hop,
        )
        self.interconnect = Interconnect(
            self.engine, config.network, topology, self.stats,
            model_contention=config.network.model_contention,
        )
        self.barrier = BarrierNetwork(
            self.engine, config.nodes, config.network.barrier_latency, self.stats
        )
        if self.cpu_lookahead:
            # Per-node lookahead (see repro.sim.engine): no message
            # reaches another node sooner than this.
            self.engine.enable_lookahead(self.interconnect.min_latency,
                                         config.nodes)
        self.nodes: list = []
        self.execution_time: float = 0
        self._finish_times: dict[int, float] = {}
        #: Optional access recorder (see repro.protocols.history); when
        #: set, every CPU access is recorded for consistency checking.
        self.history = None
        #: Observers called with each AccessFault the hardware captures
        #: (see repro.harness.trace).
        self.fault_observers: list = []
        #: Active fault-injection plan and its reliable transport (see
        #: repro.network.faults); both None on a reliable machine.
        self.fault_plan = None
        self.transport = None
        #: Online conformance monitor (see repro.protocols.conformance);
        #: None unless :meth:`enable_conformance` was called.
        self.conformance = None
        #: Batched access lanes (see repro.memory.lane and the nodes'
        #: run_*_prefix callables): on by default; False makes
        #: every AppContext run decompose to scalar accesses — the
        #: differential oracle for the vectorised reference engine.
        self.batch_lanes = True
        #: Backend-resolved named protocol costs (see
        #: :class:`repro.tempest.port.CostDomain`); set by machines that
        #: host user-level protocols (None on all-hardware DirNNB).
        self.costs = None
        #: The installed user-level protocol (None until
        #: ``install_protocol``; always None on all-hardware DirNNB).
        self.protocol = None

    # ------------------------------------------------------------------
    def install_fault_plan(self, faults):
        """Activate fault injection (a FaultPlan, FaultSpec, or None).

        Call after the protocol is installed (nodes must exist).  A null
        plan installs nothing at all — zero events, zero counters, zero
        RNG draws — so fixed-seed runs stay bit-identical.  A live plan
        binds the ``"faults"`` RNG stream, wires a
        :class:`~repro.tempest.messaging.ReliableTransport` into the
        interconnect, and applies node-level bounds/stalls on every node
        that supports them.  Returns the bound plan (None if inert).
        """
        from repro.network.faults import FaultPlan
        from repro.tempest.messaging import ReliableTransport

        plan = FaultPlan.of(faults)
        if plan is None or plan.is_null:
            return None
        plan.bind(self.rng.stream("faults"))
        # Lookahead is off under a fault plan (the scalar path is the
        # oracle it observes): drop the fence bookkeeping too.
        self.engine.enable_lookahead(0, 0)
        transport = ReliableTransport(
            self.engine, self.interconnect, plan.spec, self.stats
        )
        self.fault_plan = plan
        self.transport = transport
        self.interconnect.install_faults(plan, transport)
        if self.conformance is not None:
            transport.flight_recorder = self.conformance.recorder
        for node in self.nodes:
            install = getattr(node, "install_faults", None)
            if install is not None:
                install(plan)
        return plan

    # ------------------------------------------------------------------
    def enable_conformance(self, strict: bool = True, history: int = 64):
        """Turn on online protocol conformance checking.

        Builds a :class:`~repro.protocols.conformance.ConformanceMonitor`
        for the installed protocol's specification and attaches it to
        this machine's emission points.  Off by default: a machine that
        never calls this runs with zero monitoring overhead and
        bit-identical goldens.  Idempotent; returns the monitor.

        ``strict=True`` raises
        :class:`~repro.protocols.verify.CoherenceViolation` (with the
        flight recorder's event history) at the first violation;
        ``strict=False`` only accumulates ``monitor.violations``.
        """
        if self.conformance is not None:
            # Already monitoring (possibly auto-enabled via
            # REPRO_CONFORMANCE): honor the newly requested strictness.
            self.conformance.strict = strict
            return self.conformance
        from repro.protocols.conformance import ConformanceMonitor, spec_for

        spec = spec_for(self)
        if spec is None:
            from repro.backends import spec_name_for

            raise SimulationError(
                f"no conformance spec for protocol "
                f"{spec_name_for(self)!r} on {self.system_name!r}: add a "
                f"transition table to repro.protocols.conformance.SPECS "
                f"(every registered protocol has one)"
            )
        monitor = ConformanceMonitor(
            self, spec, strict=strict, history=history
        ).attach()
        # Lookahead is off under the monitor: drop its bookkeeping.
        self.engine.enable_lookahead(0, 0)
        self.conformance = monitor
        if self.transport is not None:
            self.transport.flight_recorder = monitor.recorder
        return monitor

    def _maybe_auto_conformance(self) -> None:
        """Honor ``REPRO_CONFORMANCE=1``: enable the monitor on every
        machine whose protocol has a spec (CI's conformance job)."""
        import os

        if self.conformance is not None:
            return
        if os.environ.get("REPRO_CONFORMANCE", "") not in ("", "0"):
            from repro.protocols.conformance import spec_for

            if spec_for(self) is not None:
                self.enable_conformance()

    @property
    def num_nodes(self) -> int:
        return self.config.nodes

    def node(self, node_id: int):
        return self.nodes[node_id]

    def wait(self, node_id: int, future):
        """Generator: block ``node_id``'s thread on ``future``; ``yield
        from`` returns its value.

        The one way a thread blocks on a completion (a barrier release,
        a lock grant, a bulk transfer): library code reaches it through
        ``Tempest.wait``.  A backend overrides it only if its CPU must
        run handlers while blocked (Blizzard spins its dispatcher).  A
        backend's own CPU model (DirNNB's miss grant, ``TempestNode``'s
        fault suspension) may still yield its futures directly.
        """
        return (yield future)

    def barrier_wait(self, node_id: int):
        """Arrive at the machine barrier: ``yield from`` blocks until
        the release (a plain call returning :meth:`wait`'s generator)."""
        return self.wait(node_id, self.barrier.arrive(node_id))

    # ------------------------------------------------------------------
    def run_workers(
        self, worker_factory: Callable[[int], Generator]
    ) -> dict[int, float]:
        """Run one worker generator per node to completion.

        ``worker_factory(node_id)`` produces the node's computation
        thread.  Returns per-node finish times; ``execution_time`` is the
        slowest node (the quantity Figure 3 reports).
        """
        self._finish_times = {}
        processes = []
        for node_id in range(self.num_nodes):
            process = Process(
                self.engine, worker_factory(node_id), name=f"cpu{node_id}",
                owner=node_id,
            )
            process.finished.add_callback(
                lambda _value, node_id=node_id: self._record_finish(node_id)
            )
            processes.append(process)
        self.engine.run()
        unfinished = [p.name for p in processes if not p.finished.done]
        if unfinished:
            raise SimulationError(
                f"deadlock: workers never finished: {unfinished} "
                f"(clock={self.engine.now})"
            )
        self.execution_time = max(self._finish_times.values(), default=0)
        self.stats.set_max("machine.execution_time", self.execution_time)
        return dict(self._finish_times)

    def _record_finish(self, node_id: int) -> None:
        self._finish_times[node_id] = self.engine.now

    def __repr__(self) -> str:
        protocol = type(self.protocol).__name__ if self.protocol else "none"
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"protocol={protocol}, cache={self.config.cache.size_bytes}B)"
        )


class TempestMachine(MachineBase):
    """N Tempest nodes plus interconnect; runs user-level protocols.

    A backend subclass supplies data: ``system_name``, which also names
    the config section its :class:`~repro.tempest.port.CostDomain` is
    resolved from, and ``node_class`` (a
    :class:`~repro.tempest.node.TempestNode` subclass).
    """

    node_class: type

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.costs = CostDomain.from_section(
            self.system_name, getattr(config, self.system_name))
        self.nodes = [self.node_class(node_id, self)
                      for node_id in range(config.nodes)]

    @property
    def tempests(self) -> list:
        """The per-node Tempest interfaces (what user-level code sees)."""
        return [node.tempest for node in self.nodes]

    def install_protocol(self, protocol) -> None:
        """Install a user-level protocol library on every node."""
        if self.protocol is not None:
            raise RuntimeError("a protocol is already installed")
        self.protocol = protocol
        protocol.install(self)
        self._maybe_auto_conformance()
