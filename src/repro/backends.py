"""The backend registry and ``backend:protocol`` system composition.

The paper's portability claim — a protocol written to Tempest runs on
any implementation of the mechanisms — becomes executable here: a
*system* is the pair of a *backend* (a machine implementing
:class:`~repro.tempest.port.TempestPort`) and a *protocol* (a library
from :mod:`repro.protocols.registry`), named ``"<backend>:<protocol>"``
(``typhoon:stache``, ``blizzard:ivy``, ...).  Every Tempest backend runs
every protocol, so the composable systems are a plain product.  The
all-hardware DirNNB baseline is a backend with its protocol baked into
hardware: it takes no user-level protocol and is named plainly
``dirnnb``.

The pre-registry system names (``typhoon-stache``, ``blizzard-stache``,
``typhoon-update``, ...) remain first-class aliases, so every harness
entry point and golden keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.protocols.registry import PROTOCOLS, ProtocolEntry, protocol_entry
from repro.sim.config import MachineConfig

__all__ = [
    "BackendEntry",
    "BACKENDS",
    "ALIASES",
    "CompositionError",
    "all_systems",
    "canonical_name",
    "compose",
    "describe_systems",
    "parse_system",
    "spec_name_for",
]


class CompositionError(ValueError):
    """A syntactically valid system that cannot be built (a protocol
    given to a backend that takes none, or a Tempest backend given
    none)."""


@dataclass(frozen=True)
class BackendEntry:
    """One registered machine substrate."""

    #: Registry key (the ``<backend>`` half of ``backend:protocol``).
    name: str
    #: One-line description (the ``systems`` CLI listing).
    description: str
    #: ``factory(config) -> machine``; lazy, so backends stay unimported
    #: until composed.
    factory: Callable[[MachineConfig], object]
    #: Name of the hardwired protocol for backends that take no
    #: user-level protocol (DirNNB); doubles as the conformance-spec key.
    builtin_protocol: str | None = None


def _typhoon(config: MachineConfig):
    from repro.typhoon.system import TyphoonMachine

    return TyphoonMachine(config)


def _decoupled(config: MachineConfig):
    from repro.decoupled.system import DecoupledMachine

    return DecoupledMachine(config)


def _blizzard(config: MachineConfig):
    from repro.blizzard.system import BlizzardMachine

    return BlizzardMachine(config)


def _dirnnb(config: MachineConfig):
    from repro.protocols.dirnnb import DirNNBMachine

    return DirNNBMachine(config)


#: Every registered backend, in presentation order.
BACKENDS: dict[str, BackendEntry] = {
    entry.name: entry
    for entry in (
        BackendEntry(
            name="dirnnb",
            description="all-hardware Dir_N NB cache coherence "
                        "(the paper's baseline; protocol in hardware)",
            factory=_dirnnb,
            builtin_protocol="dirnnb",
        ),
        BackendEntry(
            name="typhoon",
            description="hardware Tempest: per-node network processor "
                        "runs handlers decoupled from the CPU",
            factory=_typhoon,
        ),
        BackendEntry(
            name="decoupled",
            description="software Tempest on dual-processor nodes: "
                        "inserted checks on the compute CPU, handlers "
                        "on a second CPU's polling dispatch loop",
            factory=_decoupled,
        ),
        BackendEntry(
            name="blizzard",
            description="all-software Tempest: inserted checks and "
                        "polling; handlers share the CPU",
            factory=_blizzard,
        ),
    )
}

#: Legacy system names -> canonical ``backend:protocol`` strings: the
#: hyphenated spellings the paper artifacts, goldens and scripts used
#: before the registry.  A system added since gets no alias.
ALIASES: dict[str, str] = {
    "typhoon-stache": "typhoon:stache",
    "typhoon-update": "typhoon:em3d-update",
    "typhoon-migratory": "typhoon:migratory",
    "typhoon-ivy": "typhoon:ivy",
    "decoupled-stache": "decoupled:stache",
    "decoupled-update": "decoupled:em3d-update",
    "decoupled-migratory": "decoupled:migratory",
    "decoupled-ivy": "decoupled:ivy",
    "blizzard-stache": "blizzard:stache",
    "blizzard-migratory": "blizzard:migratory",
    "blizzard-ivy": "blizzard:ivy",
}


def all_systems() -> tuple[str, ...]:
    """Every composable system's canonical name, in presentation order.

    Backends that take no protocol appear bare (``dirnnb``); the rest
    appear once per registered protocol.
    """
    names: list[str] = []
    for backend in BACKENDS.values():
        if backend.builtin_protocol is not None:
            names.append(backend.name)
        else:
            names.extend(f"{backend.name}:{protocol}" for protocol in PROTOCOLS)
    return tuple(names)


def canonical_name(system: str) -> str:
    """Resolve aliases; unknown names fall through unchanged."""
    return ALIASES.get(system, system)


def _unknown(system: str) -> ValueError:
    aliases = ", ".join(sorted(ALIASES))
    return ValueError(
        f"unknown system {system!r}; compose one as '<backend>:<protocol>' "
        f"from {', '.join(all_systems())} (aliases: {aliases})"
    )


def parse_system(system: str) -> tuple[BackendEntry, ProtocolEntry | None]:
    """Resolve a system name to its validated (backend, protocol) pair.

    Accepts canonical ``backend:protocol`` strings, bare builtin-protocol
    backends (``dirnnb``), and the legacy aliases.  Raises ``ValueError``
    for unknown names and :class:`CompositionError` for a protocol given
    to a builtin-protocol backend or a Tempest backend given none.
    """
    name = canonical_name(system)
    if ":" not in name:
        backend = BACKENDS.get(name)
        if backend is None:
            raise _unknown(system)
        if backend.builtin_protocol is None:
            raise CompositionError(
                f"backend {name!r} needs a protocol: compose "
                f"'{name}:<protocol>' from {', '.join(PROTOCOLS)}"
            )
        return backend, None
    backend_name, _, protocol_name = name.partition(":")
    backend = BACKENDS.get(backend_name)
    if backend is None:
        raise _unknown(system)
    if protocol_name not in PROTOCOLS:
        raise _unknown(system)
    if backend.builtin_protocol is not None:
        raise CompositionError(
            f"backend {backend.name!r} implements its protocol in "
            f"hardware and takes no user-level protocol "
            f"(got {protocol_name!r})"
        )
    return backend, protocol_entry(protocol_name)


def compose(system: str, config: MachineConfig):
    """Build the machine for ``system`` with its protocol installed.

    Returns ``(machine, protocol)``; protocol is None for backends with
    a builtin protocol (DirNNB).
    """
    backend, entry = parse_system(system)
    machine = backend.factory(config)
    if entry is None:
        return machine, None
    protocol = entry.factory()
    machine.install_protocol(protocol)
    return machine, protocol


def spec_name_for(machine) -> str | None:
    """The conformance-spec key for ``machine``'s effective protocol.

    The installed protocol's ``name`` when one is installed, else the
    backend registry's builtin protocol for the machine's system name
    (how DirNNB, whose protocol lives in hardware, gets its spec).
    """
    protocol = getattr(machine, "protocol", None)
    if protocol is not None:
        return getattr(protocol, "name", None)
    backend = BACKENDS.get(getattr(machine, "system_name", None))
    return backend.builtin_protocol if backend is not None else None


def describe_systems() -> list[dict]:
    """One row per composable system (the ``systems`` CLI listing)."""
    aliases_by_canonical: dict[str, list[str]] = {}
    for alias, canonical in ALIASES.items():
        aliases_by_canonical.setdefault(canonical, []).append(alias)
    rows = []
    for name in all_systems():
        backend, protocol = parse_system(name)
        rows.append({
            "system": name,
            "backend": backend.name,
            "protocol": protocol.name if protocol else "(builtin)",
            "aliases": ", ".join(sorted(aliases_by_canonical.get(name, [])))
                       or "-",
            "notes": (protocol or backend).description,
        })
    return rows
