"""Pinned end-to-end goldens for the hot-path performance work.

The simulator's contract is that performance work never changes results:
for a fixed seed, every cycle count, message count, and statistic is
bit-identical before and after any optimisation.  These values were
captured from the pre-optimisation tree (seed commit) and must never
drift — if one of these fails, an "optimisation" changed simulated
behaviour and is a bug, full stop.

Unlike :mod:`tests.integration.test_golden_timing` (hand-derived
single-access costs), these pin whole-run outcomes: mini Figure 3 and
Figure 4 sweeps and a full mp3d run on all three systems, plus a digest
of per-node statistics.
"""

import pytest

from repro.harness.experiments import run_figure3, run_figure4
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig


@pytest.fixture(scope="module")
def mp3d_outcomes():
    """One mp3d run per system at the pinned configuration (nodes=4, seed=7)."""
    outcomes = {}
    for system in ("dirnnb", "typhoon-stache", "decoupled-stache",
                   "blizzard-stache"):
        config = MachineConfig(nodes=4, seed=7).with_cache_size(2048)
        outcomes[system] = run_application(
            system, workload("mp3d", "small").build(), config)
    return outcomes


def test_figure3_mini_sweep_cycle_counts_pinned():
    result = run_figure3(apps=("ocean", "em3d"), nodes=4, seed=42,
                         configurations=[("small", 2048, 16384)])
    got = {(row["application"], row["dataset"], row["cache"]):
           (row["dirnnb_cycles"], row["stache_cycles"])
           for row in result.rows}
    assert got == {
        ("ocean", "small", 2048): (16939, 17879),
        ("em3d", "small", 2048): (30951, 32313),
    }


def test_figure4_mini_sweep_cycle_counts_pinned():
    result = run_figure4(nodes=4, nodes_per_proc=12, degree=3, iterations=2,
                         cache_bytes=2048, fractions=(0.0, 0.3), seed=42)
    got = {round(row["remote_pct"]):
           (row["dirnnb"], row["typhoon_stache"], row["typhoon_update"])
           for row in result.rows}
    assert got == {
        0: (18.770833333333332, 18.46527777777778, 18.15972222222222),
        30: (109.27083333333333, 121.63888888888889, 65.02083333333333),
    }


# system -> (execution_time, refs, remote_packets, packets, words)
#
# The blizzard-stache row was refreshed (172351 -> 217956 cycles, and
# the message counts shifted with the changed interleaving) when ISSUE
# 10 de-mirrored BlizzardCosts from the Typhoon path lengths to genuine
# software-Tempest estimates; dirnnb and typhoon-stache are untouched.
# The decoupled-stache row pins the third backend, between the two.
MP3D_GOLDENS = {
    "dirnnb": (81630, 6720, 3938, 5622, 31170),
    "typhoon-stache": (97765, 6720, 4234, 4234, 25630),
    "decoupled-stache": (159752, 6720, 4228, 4228, 25572),
    "blizzard-stache": (217956, 6720, 4506, 4506, 27222),
}


def test_mp3d_message_counts_pinned_on_all_systems(mp3d_outcomes):
    for system, expected in MP3D_GOLDENS.items():
        res = mp3d_outcomes[system]
        stats = res["machine"].stats
        got = (round(res["execution_time"]), round(res["refs"]),
               round(res["remote_packets"]),
               round(stats.get("network.packets")),
               round(stats.get("network.words")))
        assert got == expected, f"{system}: {got} != {expected}"


def test_mp3d_typhoon_stats_digest_pinned(mp3d_outcomes):
    stats = mp3d_outcomes["typhoon-stache"]["machine"].stats
    digest = {
        "block_faults": stats.total(".cpu.block_faults"),
        "page_faults": stats.total(".cpu.page_faults"),
        "access_cycles": stats.total(".access_cycles"),
        "barrier_cycles": stats.total(".barrier_cycles"),
        "tlb_misses": stats.total(".tlb_misses"),
        "local_misses": stats.total(".local_misses"),
        "handler_cycles": stats.total(".handler_cycles"),
        "messages_received": stats.total(".messages_received"),
    }
    assert digest == {
        "block_faults": 1401,
        "page_faults": 3,
        "access_cycles": 333546.0,
        "barrier_cycles": 49834.0,
        "tlb_misses": 8,
        "local_misses": 2269,
        "handler_cycles": 167300.0,
        "messages_received": 4234,
    }


def test_mp3d_goldens_bit_identical_with_null_fault_plan():
    """Installing FaultPlan.none() (or any null spec) changes nothing.

    The fault layer's determinism contract: a null plan installs zero
    events, zero counters, zero RNG draws, so every pinned golden above
    holds bit-for-bit with the plan "active"."""
    from repro.network.faults import FaultPlan, FaultSpec

    for faults in (FaultPlan.none(), FaultSpec(name="none")):
        for system, expected in MP3D_GOLDENS.items():
            config = MachineConfig(nodes=4, seed=7).with_cache_size(2048)
            res = run_application(
                system, workload("mp3d", "small").build(), config,
                faults=faults)
            stats = res["machine"].stats
            got = (round(res["execution_time"]), round(res["refs"]),
                   round(res["remote_packets"]),
                   round(stats.get("network.packets")),
                   round(stats.get("network.words")))
            assert got == expected, f"{system} under {faults!r}: {got}"
            assert res["machine"].fault_plan is None
            assert res["machine"].transport is None
