"""Machine construction and single-run execution for experiments."""

from __future__ import annotations

from typing import Any

from repro.apps.base import run_app
from repro.backends import all_systems, compose
from repro.sim.config import MachineConfig

#: The three systems of Section 6, plus the software-Tempest extension —
#: the pre-registry names, kept as first-class aliases.  The full
#: composable matrix is :func:`repro.backends.all_systems`.
SYSTEMS = ("dirnnb", "typhoon-stache", "typhoon-update", "blizzard-stache")

#: Every composable ``backend:protocol`` system (canonical names).
ALL_SYSTEMS = all_systems()


def build_machine(system: str, config: MachineConfig):
    """Build a machine (with its protocol installed) for one system name.

    ``system`` is a registry-composed ``"<backend>:<protocol>"`` string
    (``typhoon:stache``, ``blizzard:ivy``, ...), a bare builtin-protocol
    backend (``dirnnb``), or a legacy alias (``typhoon-stache``, see
    :data:`repro.backends.ALIASES`).  Returns ``(machine, protocol)``;
    protocol is None for DirNNB.  Unknown names raise ``ValueError``
    with the registry's suggestion list; syntactically valid pairs that
    cannot work together (capability mismatch, e.g.
    ``blizzard:em3d-update``) raise
    :class:`repro.backends.CompositionError`.
    """
    return compose(system, config)


def run_application(system: str, app, config: MachineConfig,
                    faults=None, conformance: bool = False,
                    lanes: str = "batched") -> dict[str, Any]:
    """Run ``app`` on a fresh machine; returns timing and key statistics.

    ``faults`` (a FaultSpec/FaultPlan, see :mod:`repro.network.faults`)
    activates deterministic fault injection; None or a null plan leaves
    the machine bit-identical to an un-faulted run.

    ``conformance=True`` enables online protocol conformance checking
    (see :mod:`repro.protocols.conformance`): the run raises
    ``CoherenceViolation`` at the first illegal transition, and the
    returned machine's ``conformance`` monitor reports check counts.
    Requires a system whose protocol has a spec (the EM3D update
    protocol deliberately has none).

    ``lanes="scalar"`` turns the batched access lanes off so every
    ``read_run``/``write_run`` decomposes to scalar accesses — the
    other differential axis (batched runs are bit-identical to scalar,
    including ``execution_time``; only wall-clock changes).
    """
    if lanes not in ("batched", "scalar"):
        raise ValueError(f"unknown lanes mode {lanes!r}: "
                         "expected 'batched' or 'scalar'")
    machine, protocol = build_machine(system, config)
    machine.batch_lanes = lanes == "batched"
    if conformance:
        machine.enable_conformance()
    if faults is not None:
        machine.install_fault_plan(faults)
    execution_time = run_app(machine, app, protocol)
    stats = machine.stats
    return {
        "system": system,
        "lanes": lanes,
        "execution_time": execution_time,
        "refs": stats.total(".cpu.refs"),
        "remote_packets": (stats.get("network.packets")
                           - stats.get("network.local_packets")),
        "network_words": stats.get("network.words"),
        "block_faults": stats.total(".cpu.block_faults"),
        "page_faults": stats.total(".cpu.page_faults"),
        "machine": machine,
    }
