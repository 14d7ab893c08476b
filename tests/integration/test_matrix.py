"""The composable system matrix, end to end.

The registry's portability claim as executable tests: the new
``backend:protocol`` combinations run complete workloads under the
online conformance monitor, identical protocol code produces identical
protocol message counts on every Tempest backend (typhoon, decoupled,
blizzard), and each backend charges the costs from its *own* config
section (the cross-domain billing bug the CostDomain indirection
fixed).
"""

from dataclasses import replace

import pytest

from repro.apps.synthetic import (
    MigratoryApplication,
    ProducerConsumerApplication,
)
from repro.backends import all_systems
from repro.harness.runner import run_application
from repro.harness.sweep import Sweep
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig


def _config(nodes=4, cache=2048, seed=7):
    return MachineConfig(nodes=nodes, seed=seed).with_cache_size(cache)


# ----------------------------------------------------------------------
# New combinations, end to end under conformance
# ----------------------------------------------------------------------
# system -> (execution_time, refs, remote_packets, packets, words);
# mp3d/small at nodes=4, seed=7, 2 KB caches — the same pinned
# configuration as tests/integration/test_determinism_goldens.py.
#
# The blizzard:migratory row was refreshed (133577 -> 165291 cycles,
# message counts shifted with the new interleaving) when ISSUE 10
# de-mirrored BlizzardCosts from the Typhoon path lengths; the
# decoupled:* rows pin the third backend's systems; blizzard:em3d-update
# was pinned when the registry stopped refusing it.
NEW_COMBO_GOLDENS = {
    "typhoon:migratory": (74610, 6720, 2814, 2814, 18082),
    "typhoon:ivy": (2103775, 6720, 97594, 99454, 1836794),
    "decoupled:migratory": (116207, 6720, 2818, 2818, 18102),
    "decoupled:ivy": (3074557, 6720, 97594, 99454, 1836794),
    "decoupled:em3d-update": (159752, 6720, 4228, 4228, 25572),
    "blizzard:migratory": (165291, 6720, 2976, 2976, 19040),
    "blizzard:em3d-update": (217956, 6720, 4506, 4506, 27222),
}


@pytest.mark.parametrize("system", sorted(NEW_COMBO_GOLDENS))
def test_new_combo_runs_clean_under_conformance(system):
    res = run_application(system, workload("mp3d", "small").build(),
                          _config(), conformance=True)
    stats = res["machine"].stats
    got = (round(res["execution_time"]), round(res["refs"]),
           round(res["remote_packets"]),
           round(stats.get("network.packets")),
           round(stats.get("network.words")))
    assert got == NEW_COMBO_GOLDENS[system]
    monitor = res["machine"].conformance
    assert monitor.checks > 0
    assert monitor.violations == []


def test_blizzard_ivy_runs_clean_under_conformance():
    """The slowest new combo, on a small synthetic workload."""
    res = run_application(
        "blizzard:ivy", ProducerConsumerApplication(buffer_records=8,
                                                    phases=3),
        _config(cache=1024, seed=11), conformance=True)
    monitor = res["machine"].conformance
    assert monitor.checks > 0
    assert monitor.violations == []
    assert res["refs"] > 0


def test_blizzard_em3d_update_runs_clean_under_the_strict_monitor():
    """The update protocol's flush and fuzzy barrier on the backend
    whose handlers share the CPU: 16 nodes, every transition checked."""
    res = run_application(
        "blizzard:em3d-update", workload("em3d", "small").build(),
        _config(nodes=16, seed=1), conformance=True)
    monitor = res["machine"].conformance
    assert monitor.strict
    assert monitor.checks > 0
    assert monitor.violations == []


# ----------------------------------------------------------------------
# Cross-backend parity: identical protocol code, identical messages
# ----------------------------------------------------------------------
PARITY_KEYS = (
    "stache.ro_requests", "stache.rw_requests", "stache.blocks_fetched",
    "stache.data_replies", "stache.invalidations_sent",
    "stache.blocks_invalidated", "stache.writeback_requests",
)


def _protocol_counts(system, app):
    res = run_application(system, app, _config(cache=1024, seed=11))
    stats = res["machine"].stats
    counts = {key: stats.get(key) for key in PARITY_KEYS}
    return counts, res["execution_time"]


def test_stache_protocol_counts_identical_across_backends():
    """Section 2's portability claim, quantified: the Stache library
    makes the same protocol decisions on Typhoon, on the decoupled
    backend, and on Blizzard — request for request, invalidation for
    invalidation — and only the *cost* of executing them differs.

    The claim needs a lock-step application: on a timing-sensitive
    workload like mp3d, different dispatch costs change the arrival
    interleaving and with it *which* protocol actions fire (the
    per-backend mp3d goldens above pin those divergent counts).  The
    synthetic producer/consumer phases serialise on barriers, so every
    backend sees the same access sequence and parity is exact."""
    app = lambda: ProducerConsumerApplication(buffer_records=8, phases=3)
    typhoon, t_cycles = _protocol_counts("typhoon:stache", app())
    decoupled, d_cycles = _protocol_counts("decoupled:stache", app())
    blizzard, b_cycles = _protocol_counts("blizzard:stache", app())
    assert typhoon == decoupled == blizzard
    assert typhoon["stache.ro_requests"] > 0
    assert typhoon["stache.invalidations_sent"] > 0
    # Software dispatch is not free, and a dedicated handler CPU beats
    # dispatching on the computation CPU: typhoon < decoupled < blizzard.
    assert t_cycles < d_cycles < b_cycles


def test_migratory_protocol_counts_identical_across_backends():
    app = lambda: MigratoryApplication(records=4, rounds=2)
    typhoon, t_cycles = _protocol_counts("typhoon:migratory", app())
    decoupled, d_cycles = _protocol_counts("decoupled:migratory", app())
    blizzard, b_cycles = _protocol_counts("blizzard:migratory", app())
    assert typhoon == decoupled == blizzard
    assert typhoon["stache.rw_requests"] > 0
    assert t_cycles < d_cycles < b_cycles


# ----------------------------------------------------------------------
# Cost domains: each backend bills from its own config section
# ----------------------------------------------------------------------
def _blizzard_cycles(config):
    return run_application(
        "blizzard:stache",
        ProducerConsumerApplication(buffer_records=4, phases=2),
        config)["execution_time"]


def _typhoon_cycles(config):
    return run_application(
        "typhoon:stache",
        ProducerConsumerApplication(buffer_records=4, phases=2),
        config)["execution_time"]


def test_blizzard_charges_blizzard_configured_costs():
    """The regression the CostDomain refactor exists to prevent:
    Blizzard handler charges come from ``config.blizzard``, and the
    Typhoon cost section has no effect on a Blizzard run."""
    base = _config(nodes=2, cache=1024, seed=3)
    baseline = _blizzard_cycles(base)
    blizzard_bumped = _blizzard_cycles(replace(
        base, blizzard=replace(base.blizzard,
                               home_response_instructions=300)))
    typhoon_bumped = _blizzard_cycles(replace(
        base, typhoon=replace(base.typhoon,
                              home_response_instructions=300)))
    assert blizzard_bumped > baseline
    assert typhoon_bumped == baseline


def test_typhoon_ignores_blizzard_configured_costs():
    base = _config(nodes=2, cache=1024, seed=3)
    baseline = _typhoon_cycles(base)
    typhoon_bumped = _typhoon_cycles(replace(
        base, typhoon=replace(base.typhoon,
                              home_response_instructions=300)))
    blizzard_bumped = _typhoon_cycles(replace(
        base, blizzard=replace(base.blizzard,
                               home_response_instructions=300)))
    assert typhoon_bumped > baseline
    assert blizzard_bumped == baseline


def test_decoupled_charges_decoupled_configured_costs():
    """The third backend bills from ``config.decoupled`` only."""
    def cycles(config):
        return run_application(
            "decoupled:stache",
            ProducerConsumerApplication(buffer_records=4, phases=2),
            config)["execution_time"]

    base = _config(nodes=2, cache=1024, seed=3)
    baseline = cycles(base)
    decoupled_bumped = cycles(replace(
        base, decoupled=replace(base.decoupled,
                                home_response_instructions=300)))
    typhoon_bumped = cycles(replace(
        base, typhoon=replace(base.typhoon,
                              home_response_instructions=300)))
    blizzard_bumped = cycles(replace(
        base, blizzard=replace(base.blizzard,
                               home_response_instructions=300)))
    assert decoupled_bumped > baseline
    assert typhoon_bumped == baseline
    assert blizzard_bumped == baseline


def test_software_backend_costs_no_longer_mirror_typhoon():
    """ISSUE 10 de-mirrored the software cost domains: every handler
    path length now carries a documented software surcharge over the
    Typhoon protocol-processor count (block copy, a bus property, is
    the one number all domains share)."""
    config = MachineConfig()
    from repro.tempest.port import CostDomain

    typhoon = CostDomain.from_section("typhoon", config.typhoon)
    decoupled = CostDomain.from_section("decoupled", config.decoupled)
    blizzard = CostDomain.from_section("blizzard", config.blizzard)
    for name in CostDomain.names():
        assert decoupled.get(name) == blizzard.get(name), name
        if name == "block_copy":
            assert typhoon.get(name) == blizzard.get(name)
        else:
            assert typhoon.get(name) < blizzard.get(name), name


# ----------------------------------------------------------------------
# Harness integration: sweep axis and CLI
# ----------------------------------------------------------------------
def test_sweep_all_systems_axis_covers_the_matrix():
    sweep = Sweep().all_systems()
    assert sweep._systems == list(all_systems())
    cells = sweep.cell_list(nodes=2)
    assert {cell[0] for cell in cells} == set(all_systems())


def test_sweep_matrix_under_conformance_checks_every_system():
    """``all_systems() x conformance(True)`` checks *every* cell: since
    the step-indexed em3d-update spec landed, no registered system runs
    unchecked — every row reports ``on`` with live checks."""
    result = (Sweep().all_systems()
              .workloads(("ocean", "small")).cache_sizes(1024).seeds(5)
              .conformance(True)
              .run(nodes=2))
    by_system = {row["system"]: row for row in result.rows}
    assert set(by_system) == set(all_systems())
    for system, row in by_system.items():
        assert row["conformance"] == "on", system
        assert row["checks"] > 0, system
        assert row["violations"] == 0, system


def test_cli_systems_command_lists_the_matrix(capsys):
    from repro.cli import main

    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    for system in all_systems():
        assert system in out


def test_system_matrix_reports_conformance_on_for_every_cell():
    """Since the em3d-update spec landed, ``repro matrix`` has no
    unchecked cell left: every row runs under the monitor."""
    from repro.harness.experiments import run_system_matrix

    result = run_system_matrix(nodes=2)
    assert {row["system"] for row in result.rows} == set(all_systems())
    for row in result.rows:
        assert row["conformance"] == "on", row["system"]
        assert row["checks"] > 0, row["system"]


def test_cli_matrix_command_runs_every_system(capsys):
    from repro.cli import main

    assert main(["matrix", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    for system in all_systems():
        assert system in out
    assert "no spec" not in out  # every row runs under conformance now
    assert "violation" not in out.lower()


def test_run_application_accepts_canonical_and_alias_names():
    app = ProducerConsumerApplication(buffer_records=4, phases=2)
    canonical = run_application("typhoon:stache", app,
                                _config(nodes=2, cache=1024, seed=3))
    app = ProducerConsumerApplication(buffer_records=4, phases=2)
    alias = run_application("typhoon-stache", app,
                            _config(nodes=2, cache=1024, seed=3))
    assert canonical["execution_time"] == alias["execution_time"]
    assert canonical["remote_packets"] == alias["remote_packets"]
