"""The protocol registry: every installable user-level protocol, by name.

One entry per protocol library, carrying what the composition layer
(:mod:`repro.backends`) needs to build and validate a system:

* a lazy **factory** (protocol modules stay unimported until used),
* the **capabilities** the protocol requires of its backend (validated
  against the backend's ``provides`` set at composition time), and
* the name of its **conformance spec** in
  :data:`repro.protocols.conformance.SPECS` (None for protocols that
  deliberately have no spec).

This module imports nothing from ``repro.typhoon`` or ``repro.blizzard``
— protocols and their registry are backend-neutral by construction (a
test enforces the import ban for the whole ``repro.protocols`` package).

Capability vocabulary (what a backend can promise):

``fine-grain-tags``
    Per-block access tags with user-installable block-fault handlers.
``active-messages``
    Low-overhead user-level messages dispatched to registered handlers.
``bulk-transfer``
    Node-to-node bulk data transfer with completion notification.
``decoupled-handlers``
    Handlers run on a dedicated processor (Typhoon's NP, or the
    decoupled backend's second-CPU dispatch loop) while the computation
    thread is blocked, so a protocol may wait on a bare future without
    polling.  A single-CPU all-software backend (Blizzard) does not
    have this: its stalled CPU must spin-poll to run handlers, and a
    protocol whose wait path never polls (EM3D-update's flush/fuzzy
    barrier) would deadlock — which is exactly what composition-time
    validation rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "ProtocolEntry",
    "PROTOCOLS",
    "protocol_entry",
    "protocol_names",
]

#: The capability names backends and protocols may use.
CAPABILITIES = frozenset({
    "fine-grain-tags",
    "active-messages",
    "bulk-transfer",
    "decoupled-handlers",
})


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol library."""

    #: Registry key (the ``<protocol>`` half of ``backend:protocol``).
    name: str
    #: Zero-argument factory returning a fresh protocol instance.
    factory: Callable[[], object]
    #: One-line description (the ``systems`` CLI listing).
    description: str
    #: Backend capabilities this protocol needs (see module docstring).
    requires: frozenset
    #: Key into :data:`repro.protocols.conformance.SPECS`.  Every
    #: registered protocol carries one (em3d-update's is step-indexed);
    #: None remains legal for out-of-tree protocols without a table.
    conformance: str | None


def _stache():
    from repro.protocols.stache import StacheProtocol

    return StacheProtocol()


def _migratory():
    from repro.protocols.migratory import MigratoryProtocol

    return MigratoryProtocol()


def _ivy():
    from repro.protocols.ivy import IvyProtocol

    return IvyProtocol()


def _em3d_update():
    from repro.protocols.em3d_update import Em3dUpdateProtocol

    return Em3dUpdateProtocol()


#: Every installable protocol, in presentation order.
PROTOCOLS: dict[str, ProtocolEntry] = {
    entry.name: entry
    for entry in (
        ProtocolEntry(
            name="stache",
            factory=_stache,
            description="transparent shared memory, block-grain "
                        "invalidation (paper Section 3)",
            requires=frozenset({"fine-grain-tags", "active-messages"}),
            conformance="stache",
        ),
        ProtocolEntry(
            name="migratory",
            factory=_migratory,
            description="Stache plus migratory-sharing detection and "
                        "exclusive-on-read grants",
            requires=frozenset({"fine-grain-tags", "active-messages"}),
            # MigratoryProtocol.name is "stache-migratory"; the spec
            # table keys on that.
            conformance="stache-migratory",
        ),
        ProtocolEntry(
            name="ivy",
            factory=_ivy,
            description="page-grain DSM (Li & Hudak's fixed distributed "
                        "manager) over bulk transfer",
            requires=frozenset({
                "fine-grain-tags", "active-messages", "bulk-transfer",
            }),
            conformance="ivy",
        ),
        ProtocolEntry(
            name="em3d-update",
            factory=_em3d_update,
            description="Stache plus EM3D's delayed-update flush and "
                        "fuzzy barrier (paper Section 4)",
            # The flush/fuzzy barrier blocks the computation thread on a
            # bare future while handlers count arriving updates: only a
            # backend with a decoupled handler processor can run them.
            requires=frozenset({
                "fine-grain-tags", "active-messages", "decoupled-handlers",
            }),
            # Step-indexed spec: single-writer is relaxed *within* a
            # step only; the flush boundary restores it, and the
            # monitor checks the watermark/flush-order invariants.
            conformance="em3d-update",
        ),
    )
}


def protocol_names() -> tuple[str, ...]:
    """Registered protocol names, in presentation order."""
    return tuple(PROTOCOLS)


def protocol_entry(name: str) -> ProtocolEntry:
    """Look up one protocol; raises ``ValueError`` on unknown names."""
    entry = PROTOCOLS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(PROTOCOLS)}"
        )
    return entry
