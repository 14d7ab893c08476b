"""The machine-level surface protocols program against (`TempestPort`),
and the per-backend cost indirection (`CostDomain`).

:class:`~repro.tempest.interface.TempestBackend` pins down what one
*node* must expose for the :class:`~repro.tempest.interface.Tempest`
facade to work.  Protocol libraries, however, are installed onto a whole
*machine* — they walk ``machine.nodes``, consult ``machine.layout`` and
``machine.heap``, and charge handler costs.  :class:`TempestPort` names
that machine-level surface, so a protocol written against it runs on any
backend that implements it (Typhoon's hardware NP, the decoupled
backend's second-CPU dispatch loop, Blizzard's all-software polling
node, or anything the registry grows later) — the paper's portability
argument, made checkable with ``isinstance``.

:class:`CostDomain` is the cost-model half of that portability.  Handler
path lengths are properties of the *protocol code* ("30 instructions for
the remote node to respond with the data"), but what a backend charges
for them is a property of the *backend*: Typhoon bills the NP, the
decoupled backend bills its handler processor, Blizzard bills the
computation thread at its own dispatch cost and CPI.  Each
machine resolves the named costs from its own config section and exposes
them as ``machine.costs``; protocol code reads only the names.  Before
this indirection existed, every protocol read ``machine.config.typhoon``
directly — so a Blizzard run silently billed Typhoon's NP instruction
counts and ignored any Blizzard-specific calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Protocol, runtime_checkable

__all__ = ["CostDomain", "TempestPort"]


@dataclass(frozen=True)
class CostDomain:
    """Named protocol costs, resolved from one backend's config section.

    Instruction-count fields are *path lengths*: the executing backend
    applies its own dispatch overhead and cycles-per-instruction on top
    (the NP's CPI on Typhoon, ``software_dispatch_cycles`` plus the CPU's
    CPI on Blizzard).  ``block_copy`` is already in cycles (a local bus
    round trip to move one 32-byte block).
    """

    #: Which config section these numbers came from ("typhoon", ...).
    domain: str
    #: Launch a miss request at a faulting node (paper: 14 instructions).
    miss_request: int
    #: Serve a request at the home directory (paper: 30 instructions).
    home_response: int
    #: Install arriving data at the requester (paper: 20 instructions).
    data_arrival: int
    #: Invalidate a cached copy and acknowledge.
    invalidate: int
    #: Absorb an invalidation acknowledgment at the home.
    ack: int
    #: Answer a writeback/recall of an exclusive copy.
    writeback: int
    #: The user-level page fault handler (allocate + map + init tags).
    page_fault: int
    #: Fixed remap cost of replacing a cached page.
    page_replace: int
    #: Marginal cost of each extra message composed inside a handler.
    per_message: int
    #: Bus round trip to copy one block to/from local DRAM (cycles).
    block_copy: int

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """Every chargeable cost name (everything but ``domain``)."""
        return tuple(f.name for f in fields(cls) if f.name != "domain")

    def get(self, name: str) -> int:
        """Resolve one named cost; raises ``KeyError`` on unknown names."""
        if name == "domain" or not hasattr(self, name):
            raise KeyError(f"unknown cost {name!r} in domain {self.domain!r}")
        return getattr(self, name)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    @classmethod
    def from_section(cls, domain: str, costs) -> "CostDomain":
        """Resolve from ``costs``, the config section named ``domain``
        (a :class:`~repro.sim.config.TyphoonCosts`, ``DecoupledCosts``
        or ``BlizzardCosts``)."""
        return cls(
            domain=domain,
            miss_request=costs.miss_request_instructions,
            home_response=costs.home_response_instructions,
            data_arrival=costs.data_arrival_instructions,
            invalidate=costs.invalidate_handler_instructions,
            ack=costs.ack_handler_instructions,
            writeback=costs.writeback_handler_instructions,
            page_fault=costs.page_fault_instructions,
            page_replace=costs.page_replace_instructions,
            per_message=costs.per_message_instructions,
            block_copy=costs.block_copy_cycles,
        )


@runtime_checkable
class TempestPort(Protocol):
    """What a whole machine exposes to an installed protocol library.

    Structural and ``runtime_checkable``:
    :class:`~repro.typhoon.system.TyphoonMachine`,
    :class:`~repro.decoupled.system.DecoupledMachine`, and
    :class:`~repro.blizzard.system.BlizzardMachine` all satisfy it
    through their shared :class:`~repro.machine.TempestMachine`, without
    inheriting from anything here, and protocol modules annotate
    against it instead of naming a backend type (no module under
    ``repro.protocols`` may import ``repro.typhoon``,
    ``repro.decoupled``, or ``repro.blizzard`` — a test enforces this).
    Nothing more is asked of a backend: :mod:`repro.backends` composes
    every registered protocol with every machine that satisfies it.

    Each node in ``nodes`` additionally satisfies
    :class:`~repro.tempest.interface.TempestBackend` and exposes the
    protocol wiring points: ``node.tempest`` (the per-node facade),
    ``node.np.set_fault_handler(mode, is_write, handler_name)`` (the
    block-access-fault dispatch table — a real NP on Typhoon, a
    dedicated handler processor on the decoupled backend, a software
    dispatcher on Blizzard), and ``node.set_page_fault_handler(fn)``.
    """

    config: Any
    engine: Any
    stats: Any
    layout: Any
    heap: Any
    nodes: list
    #: Backend-resolved named costs (see :class:`CostDomain`).
    costs: CostDomain
    #: The installed protocol (None until ``install_protocol``).
    protocol: Any
    #: Online conformance monitor, or None (see
    #: :mod:`repro.protocols.conformance`).
    conformance: Any

    @property
    def num_nodes(self) -> int: ...

    def install_protocol(self, protocol) -> None: ...

    def barrier_wait(self, node_id: int): ...

    def wait(self, node_id: int, future): ...
