"""Differential testing: the scalar access path as the lanes' oracle.

The batched access lanes (:mod:`repro.memory.lane`) promise *observable
equivalence*: for any workload, any seed, any fault plan, a run with
``lanes="batched"`` and one with ``lanes="scalar"`` produce bit-identical
statistics, the same final memory image on every node, and the same
simulated execution time.  The scalar decomposition defines correct
behaviour; this module checks the lanes against it.

One deliberate exception: ``engine.events_fired`` may differ.  It is
bookkeeping about the simulator, not about the simulated machine (a
committed lane run, like an inline handler dispatch, advances the clock
without a heap round trip), so :func:`compare_runs` excludes it and
asserts everything else, including the RNG-sensitive fault counters.

Usage::

    from repro.harness.differential import run_lane_differential
    result = run_lane_differential("typhoon:stache", "mp3d", "small")
    assert result.identical

or sweep every system (what ``python -m repro differential`` and
``tests/integration/test_differential.py`` do)::

    for result in run_lane_matrix(nodes=4):
        assert result.identical
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

__all__ = [
    "DifferentialResult",
    "IGNORED_STATS",
    "compare_runs",
    "run_lane_differential",
    "run_lane_matrix",
]

#: Statistics that are *about the simulator*, not the simulated machine:
#: excluded from the identity check.  (Currently empty — events_fired is
#: read off the engine, not Stats, so no stat key needs masking; the
#: tuple exists so a future simulator-internal counter has a documented
#: place to go.)
IGNORED_STATS: tuple[str, ...] = ()


@dataclass
class DifferentialResult:
    """Outcome of one scalar-vs-batched comparison."""

    system: str
    app: str
    dataset: str
    #: Human-readable descriptions of every divergence (empty = pass).
    diffs: list[str] = field(default_factory=list)
    execution_time: float = 0.0
    stats_compared: int = 0
    events_scalar: int = 0
    events_batched: int = 0

    @property
    def identical(self) -> bool:
        return not self.diffs

    def __repr__(self) -> str:
        status = "identical" if self.identical else f"{len(self.diffs)} diffs"
        return (f"DifferentialResult({self.system!r}, {self.app}/"
                f"{self.dataset}, {status})")


def compare_runs(left: dict[str, Any], right: dict[str, Any],
                 labels: tuple[str, str] = ("scalar", "batched"),
                 ) -> list[str]:
    """Compare two :func:`run_application` outcomes; return divergences.

    Checks, in order of diagnostic value: simulated execution time,
    the full statistics dictionaries (every counter, every
    distribution moment), and the final per-node memory images.
    ``labels`` names the two runs in the divergence messages.
    """
    left_name, right_name = labels
    diffs: list[str] = []
    if left["execution_time"] != right["execution_time"]:
        diffs.append(
            f"execution_time: {left_name}={left['execution_time']} "
            f"{right_name}={right['execution_time']}"
        )
    lstats = left["machine"].stats.as_dict()
    rstats = right["machine"].stats.as_dict()
    for key in IGNORED_STATS:
        lstats.pop(key, None)
        rstats.pop(key, None)
    for key in sorted(lstats.keys() | rstats.keys()):
        lvalue, rvalue = lstats.get(key), rstats.get(key)
        if lvalue != rvalue:
            diffs.append(
                f"stat {key}: {left_name}={lvalue} {right_name}={rvalue}"
            )
    lmachine = left["machine"]
    rmachine = right["machine"]
    if hasattr(lmachine, "shared_image"):
        # DirNNB keeps one machine-wide image instead of per-node copies.
        image_pairs = [("shared", lmachine.shared_image,
                        rmachine.shared_image)]
    else:
        image_pairs = [
            (f"node {lnode.node_id}", lnode.image, rnode.image)
            for lnode, rnode in zip(lmachine.nodes, rmachine.nodes)
        ]
    for label, limage, rimage in image_pairs:
        lwords = sorted(limage.items())
        rwords = sorted(rimage.items())
        if lwords != rwords:
            delta = sum(1 for a, b in zip(lwords, rwords) if a != b)
            delta += abs(len(lwords) - len(rwords))
            diffs.append(f"memory image {label}: {delta} words differ")
    return diffs


def run_lane_differential(system: str, app: str = "mp3d",
                          dataset: str = "small",
                          config: MachineConfig | None = None,
                          faults=None) -> DifferentialResult:
    """Run ``system`` with scalar and batched lanes and compare.

    ``lanes="batched"`` changes wall-clock only — simulated time, every
    statistic, and every node's final memory image are bit-identical to
    the scalar decomposition.  ``faults`` exercises the lane deopt (a
    live fault plan turns the lanes off per call, so the batched run
    must decompose exactly like scalar).
    """
    if config is None:
        config = MachineConfig(nodes=4, seed=42).with_cache_size(2048)
    scalar = run_application(
        system, workload(app, dataset).build(), config,
        faults=faults, lanes="scalar",
    )
    batched = run_application(
        system, workload(app, dataset).build(), config,
        faults=faults, lanes="batched",
    )
    return DifferentialResult(
        system=system,
        app=app,
        dataset=dataset,
        diffs=compare_runs(scalar, batched),
        execution_time=scalar["execution_time"],
        stats_compared=len(scalar["machine"].stats.as_dict()),
        events_scalar=scalar["machine"].engine.events_fired,
        events_batched=batched["machine"].engine.events_fired,
    )


def run_lane_matrix(app: str = "mp3d", dataset: str = "small",
                    nodes: int = 4, seed: int = 42, cache_bytes: int = 2048,
                    faults=None) -> list[DifferentialResult]:
    """Batched-vs-scalar comparison across *every* system.

    No system is exempt: the lanes live in the node models, so even
    DirNNB and the EM3D update protocol must be bit-identical across
    the axis.
    """
    from repro.backends import all_systems

    config = MachineConfig(nodes=nodes, seed=seed).with_cache_size(cache_bytes)
    return [
        run_lane_differential(system, app, dataset, config, faults=faults)
        for system in all_systems()
    ]
