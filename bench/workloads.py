"""The ledger's five workloads: system, machine size, input, output checks.

Each workload is one 32-node (or 8-node) run of a paper application on
one backend, sized so a run lasts about three host seconds.  Together
they put the weight of the run on different layers of the simulator;
``why`` says which, and README.md gives the layer-to-metric table.

Definitions are plain data so the parent process can list them without
importing the simulator; :func:`make_app` and :func:`check_outputs`
import it on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: The simulated outcome of a run: what must repeat exactly from run to
#: run of one workload and seed.  ``events_fired`` is left out on
#: purpose: engine bookkeeping may change it without changing behaviour.
OUTCOME_KEYS = ("execution_time", "refs", "remote_packets", "network_words",
                "block_faults", "page_faults")


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    nodes: int
    cache_kb: int
    app: str
    params: dict = field(default_factory=dict)
    why: str = ""
    #: How the run's host time scales with the host speed that
    #: ``hostspeed.py`` measures: time ~ speed ** -speed_exponent.  Fitted
    #: by regressing log run time on log host speed over runs at host
    #: speeds from 0.6 to 1.1, rounded to a tenth, and 1 where the fit
    #: is within a tenth of it (see README.md).
    speed_exponent: float = 1.0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mp3d-typhoon", "typhoon:stache", 32, 32, "mp3d",
            dict(molecules=1280, space_cells=192, iterations=12),
            "Figure 3's worst case: migratory writes give ~1 packet per "
            "reference, so NP dispatch, handlers and network dominate; "
            "the compiled kernel is active.",
        ),
        Workload(
            "em3d-dirnnb", "dirnnb", 32, 32, "em3d",
            dict(nodes_per_proc=72, degree=6, remote_fraction=0.2,
                 iterations=3),
            "The all-hardware baseline: engine, network and directory "
            "work with no Tempest, NP, kernel or lanes.",
        ),
        Workload(
            "em3d-decoupled", "decoupled:em3d-update", 32, 32, "em3d",
            dict(nodes_per_proc=72, degree=6, remote_fraction=0.5,
                 iterations=3),
            "Figure 4's 50%-remote point: one-way update pushes run on "
            "the handler CPU and the compiled kernel falls back.",
            speed_exponent=1.1,
        ),
        Workload(
            "ocean-blizzard", "blizzard:stache", 32, 32, "ocean",
            dict(grid=80, iterations=8),
            "Read-mostly stencil: software access checks on every "
            "reference and CPU-run handlers, with few packets.",
            # With 1, normcheck.py read its base time 3-5% higher on slow
            # moments than on fast ones.
            speed_exponent=1.1,
        ),
        Workload(
            "sweep-typhoon", "typhoon:stache", 8, 8, "sweep",
            dict(records=512, sweeps=1200),
            "Owned-range sweeps that hit ~100% with zero packets: the "
            "memory layer and lanes do the work, network and protocols "
            "none.",
            # Its lane loops slow down more than the calibration loop
            # when the host is busy.
            speed_exponent=1.3,
        ),
    )
}

#: The simulated outcome of each workload at the default seed (1).  A
#: change to the simulator that only makes it faster leaves these alone;
#: a deliberate change to the cost model re-pins them.
PINNED_SEED = 1
PINNED = {
    "mp3d-typhoon": dict(execution_time=1414273, refs=107520,
                         remote_packets=114250, network_words=685966,
                         block_faults=29610, page_faults=62),
    "em3d-dirnnb": dict(execution_time=192612, refs=203567,
                        remote_packets=73374, network_words=610821,
                        block_faults=0, page_faults=0),
    "em3d-decoupled": dict(execution_time=241171, refs=211050,
                           remote_packets=65805, network_words=302703,
                           block_faults=13161, page_faults=1983),
    "ocean-blizzard": dict(execution_time=219169, refs=292032,
                           remote_packets=31200, network_words=160160,
                           block_faults=15600, page_faults=104),
    "sweep-typhoon": dict(execution_time=5035336, refs=4915200,
                          remote_packets=0, network_words=0,
                          block_faults=0, page_faults=0),
}


def make_app(workload: Workload, seed: int):
    """The workload's application object, seeded with ``seed``."""
    from repro.apps.em3d import Em3dApplication
    from repro.apps.mp3d import Mp3dApplication
    from repro.apps.ocean import OceanApplication
    from repro.apps.synthetic import ReferenceSweepApplication

    if workload.app == "sweep":
        # The sweep's inputs are fixed; the seed reaches it only through
        # the machine (cache replacement).
        return ReferenceSweepApplication(**workload.params)
    cls = {"mp3d": Mp3dApplication, "em3d": Em3dApplication,
           "ocean": OceanApplication}[workload.app]
    return cls(seed=seed, **workload.params)


def machine_config(workload: Workload, seed: int):
    from repro.sim.config import CacheConfig, MachineConfig

    return MachineConfig(nodes=workload.nodes,
                         cache=CacheConfig(size_bytes=workload.cache_kb * 1024),
                         seed=seed)


def outcome(machine) -> dict:
    """The run's simulated outcome (see :data:`OUTCOME_KEYS`)."""
    stats = machine.stats
    return {
        "execution_time": machine.execution_time,
        "refs": stats.total(".cpu.refs"),
        "remote_packets": (stats.get("network.packets")
                           - stats.get("network.local_packets")),
        "network_words": stats.get("network.words"),
        "block_faults": stats.total(".cpu.block_faults"),
        "page_faults": stats.total(".cpu.page_faults"),
    }


def _close(got, want) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def check_outputs(workload: Workload, machine, app) -> None:
    """Check the application's results in simulated memory.

    Raises ``ValueError`` naming the first wrong value.  The sweep checks
    the values it reads while it runs; this checks its final image.
    """
    peek = app.peek
    if workload.app == "mp3d":
        from repro.apps.mp3d import CELL_COUNT, CELL_MOMENTUM, MOL_POS

        cells = range(app.space_cells)
        population = sum(peek(machine, app.space.addr(c, CELL_COUNT))
                         for c in cells)
        momentum = sum(peek(machine, app.space.addr(c, CELL_MOMENTUM))
                       for c in cells)
        # Unlocked read-modify-writes may lose updates but never invent
        # them, so the reference totals are upper bounds.
        max_population, max_momentum = app.reference_totals()
        if not (0 < population <= max_population
                and 0 < momentum <= max_momentum):
            raise ValueError(f"mp3d totals {population}, {momentum} outside "
                             f"(0, {max_population}], (0, {max_momentum}]")
        for index in range(app.molecules):
            position = peek(machine, app.mols.addr(index, MOL_POS))
            if not 0 <= position < app.space_cells:
                raise ValueError(f"mp3d molecule {index} at {position}")
    elif workload.app == "em3d":
        from repro.apps.em3d import VALUE_OFFSET

        ref_e, ref_h = app.reference_values()
        for array, ref, kind in ((app.e_nodes, ref_e, "e"),
                                 (app.h_nodes, ref_h, "h")):
            for index, want in enumerate(ref):
                got = peek(machine, array.addr(index, VALUE_OFFSET))
                if not _close(got, want):
                    raise ValueError(f"em3d {kind}[{index}] = {got}, "
                                     f"expected {want}")
    elif workload.app == "ocean":
        which = app.final_grid_index()
        for row, values in enumerate(app.reference_values()):
            for col, want in enumerate(values):
                got = peek(machine, app.cell_addr(which, row, col))
                if not _close(got, want):
                    raise ValueError(f"ocean [{row}][{col}] = {got}, "
                                     f"expected {want}")
    elif workload.app == "sweep":
        from repro.apps.synthetic import RECORD_BYTES

        for index in range(app.records):
            for offset in range(0, RECORD_BYTES, 8):
                got = peek(machine, app.array.addr(index, offset))
                if got != app.sweeps:
                    raise ValueError(f"sweep record {index}+{offset} = "
                                     f"{got}, expected {app.sweeps}")
    else:
        raise ValueError(f"no output check for app {workload.app!r}")
