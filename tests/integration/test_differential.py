"""Differential testing: batched lanes vs the scalar oracle, and the
comparison itself.

The batched access lanes' contract is observable equivalence
(``docs/performance.md``): identical statistics, identical final memory
images, identical execution time — for every system, with and without
deterministic lossy networks.  ``events_fired`` is the one deliberate
exception (engine bookkeeping).  The single dispatch path is held to
the pre-merge outcomes by ``test_dispatch_goldens.py``.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import ProducerConsumerApplication
from repro.backends import all_systems
from repro.harness.differential import (
    compare_runs,
    run_lane_differential,
    run_lane_matrix,
)
from repro.harness.runner import run_application
from repro.network.faults import FaultSpec
from repro.sim.config import MachineConfig


def _tiny_outcome(system, seed, faults=None):
    config = MachineConfig(nodes=2, seed=seed).with_cache_size(1024)
    return run_application(
        system, ProducerConsumerApplication(buffer_records=4, phases=2),
        config, faults=faults,
    )


# ----------------------------------------------------------------------
# The full matrix (what CI's differential job runs at nodes=4)
# ----------------------------------------------------------------------
def test_lane_matrix_bit_identical():
    """Every system, no exemptions: the lanes live in the node models."""
    results = run_lane_matrix("ocean", "small", nodes=2, cache_bytes=1024)
    assert [r.system for r in results] == list(all_systems())
    for result in results:
        assert result.identical, (result.system, result.diffs)


def test_lane_differential_under_lossy_network():
    lossy = FaultSpec(name="lossy", drop_pct=0.08, dup_pct=0.04,
                      delay_pct=0.2, delay_min=1, delay_max=12)
    result = run_lane_differential(
        "typhoon:stache", "mp3d", "small",
        MachineConfig(nodes=2, seed=11).with_cache_size(1024),
        faults=lossy,
    )
    assert result.identical, result.diffs


def test_divergence_is_detected_not_assumed():
    """compare_runs must actually see through the stats/image/exec-time
    surfaces — feed it two runs that genuinely differ and expect diffs."""
    lossy = FaultSpec(name="lossy", drop_pct=0.1, dup_pct=0.05)
    left = _tiny_outcome("typhoon:stache", seed=7, faults=lossy)
    right = _tiny_outcome("typhoon:stache", seed=8, faults=lossy)
    # Different fault-RNG seeds drop different packets: real divergence.
    assert compare_runs(left, right)
    same = _tiny_outcome("typhoon:stache", seed=7, faults=lossy)
    assert not compare_runs(left, same)


# ----------------------------------------------------------------------
# Property: random lossy networks, conformance on, runs reproduce
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    drop=st.integers(0, 10),
    dup=st.integers(0, 5),
    delay=st.integers(0, 25),
    seed=st.integers(0, 2**16),
)
def test_property_lossy_conformance_runs_reproduce(drop, dup, delay, seed):
    """Any seeded lossy plan, REPRO_CONFORMANCE=1: two runs produce
    identical statistics and memory images, and the conformance monitor
    checked every transition of both."""
    spec = FaultSpec(
        name="prop", drop_pct=drop / 100, dup_pct=dup / 100,
        delay_pct=delay / 100, delay_min=1, delay_max=9,
    )
    previous = os.environ.get("REPRO_CONFORMANCE")
    os.environ["REPRO_CONFORMANCE"] = "1"
    try:
        first = _tiny_outcome("typhoon:stache", seed, faults=spec)
        second = _tiny_outcome("typhoon:stache", seed, faults=spec)
    finally:
        if previous is None:
            del os.environ["REPRO_CONFORMANCE"]
        else:
            os.environ["REPRO_CONFORMANCE"] = previous
    diffs = compare_runs(first, second, labels=("first", "second"))
    assert not diffs, diffs
    first_monitor = first["machine"].conformance
    second_monitor = second["machine"].conformance
    assert first_monitor is not None and second_monitor is not None
    assert first_monitor.checks == second_monitor.checks
    assert first_monitor.checks > 0
