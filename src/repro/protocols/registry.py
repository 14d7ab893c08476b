"""The protocol registry: every installable user-level protocol, by name.

One entry per protocol library: its name, a lazy **factory** (protocol
modules stay unimported until used) and a one-line description.  Every
registered protocol runs on every Tempest backend of
:mod:`repro.backends`, and each is checked online against the spec in
:data:`repro.protocols.conformance.SPECS` that its installed ``name``
keys.

This module imports nothing from ``repro.typhoon`` or ``repro.blizzard``
— protocols and their registry are backend-neutral by construction (a
test enforces the import ban for the whole ``repro.protocols`` package).
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


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol library."""

    #: Registry key (the ``<protocol>`` half of ``backend:protocol``).
    name: str
    #: Zero-argument factory returning a fresh protocol instance.
    factory: Callable[[], object]
    #: One-line description (the ``systems`` CLI listing).
    description: str


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
        ),
        ProtocolEntry(
            name="migratory",
            factory=_migratory,
            description="Stache plus migratory-sharing detection and "
                        "exclusive-on-read grants",
        ),
        ProtocolEntry(
            name="ivy",
            factory=_ivy,
            description="page-grain DSM (Li & Hudak's fixed distributed "
                        "manager) over bulk transfer",
        ),
        ProtocolEntry(
            name="em3d-update",
            factory=_em3d_update,
            description="Stache plus EM3D's delayed-update flush and "
                        "fuzzy barrier (paper Section 4)",
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
