"""Pinned 16-node goldens: the scale at which per-node lookahead matters.

The 4-node goldens elsewhere rarely put another node's event inside a
CPU's hit window, so they say little about code that lets a CPU commit
hits past other nodes' events.  These runs do: 16 nodes, small data
sets, a 2 KB cache.  Each row pins the execution time, the number of
engine events fired, the engine's final sequence number (every schedule
draws one, so a replay that schedules one event more or less, or in
another order, moves it) and a digest of every statistic plus each
node's cache and TLB counters.  The values were captured before
lookahead existed and must never be re-pinned for a speed change.  The
barnes rows were captured before the write lane existed: barnes is the
one paper application whose workers call ``write_run``.  The
blizzard:em3d-update row was pinned when that system first composed;
the scalar lanes, which never look ahead, give the same row.
"""

import hashlib

import pytest

from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

# (system, app) -> (execution_time, events_fired, final seq, stats digest)
GOLDENS = {
    ("blizzard:stache", "barnes"): (195955, 39989, 39989, "34e48887a0981efc"),
    ("blizzard:stache", "ocean"): (16448, 19220, 19220, "c4a7dcfca0db5791"),
    ("blizzard:stache", "em3d"): (78960, 57075, 57075, "6134548395a17df3"),
    ("blizzard:stache", "mp3d"): (261253, 30255, 30255, "17330f5cbf6c59c1"),
    ("blizzard:em3d-update", "em3d"): (43536, 47868, 47868,
                                       "fac08475705e712c"),
    ("decoupled:em3d-update", "em3d"): (34120, 31523, 31523,
                                        "a63684322d9492db"),
    ("decoupled:stache", "barnes"): (158963, 32389, 32389,
                                     "705bbdd40b7cdcc8"),
    ("typhoon:stache", "barnes"): (99324, 33035, 33035, "0bbda90c4df04fc0"),
    ("typhoon:stache", "mp3d"): (124414, 25152, 25152, "77a20b1c68bd09a1"),
    ("typhoon:ivy", "em3d"): (190397, 201489, 201489, "dd29b35d396877bb"),
}


def stats_digest(machine) -> str:
    """SHA-256 prefix over every statistic and each node's cache/TLB counts."""
    digest = hashlib.sha256()
    for name, value in sorted(machine.stats.as_dict().items()):
        digest.update(f"{name}={value!r};".encode())
    for node in machine.nodes:
        digest.update(f"{node.cache.hits},{node.cache.misses},"
                      f"{node.cpu_tlb.hits},{node.cpu_tlb.misses};".encode())
    return digest.hexdigest()[:16]


def outcome(system: str, app: str, lanes: str = "batched") -> tuple:
    config = MachineConfig(nodes=16, seed=1).with_cache_size(2048)
    result = run_application(system, workload(app, "small").build(), config,
                             lanes=lanes)
    machine = result["machine"]
    return (result["execution_time"], machine.engine.events_fired,
            machine.engine._seq, stats_digest(machine))


@pytest.mark.parametrize("system,app", sorted(GOLDENS))
def test_sixteen_node_run_pinned(system, app, monkeypatch):
    # The conformance monitor turns lookahead off; pin the path it speeds.
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    assert outcome(system, app) == GOLDENS[system, app]
