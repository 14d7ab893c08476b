"""Simulation throughput benchmark of the one dispatch path.

Times representative runs — the workloads the hot-path work in
``sim/engine.py``, ``sim/process.py``, the node models, and the shared
handler-dispatch loop (:mod:`repro.tempest.dispatch`) targets — and
writes ``BENCH_kernel.json`` at the repo root so successive commits
carry a throughput trajectory.

Methodology: each cell is run a few times and the best time kept —
wall clock on shared boxes is noisy.  Lane rows run
``REPRO_BENCH_REPEATS`` times (default 3), interleaving their two lane
modes so a load spike cannot bias one column; the dispatch rows are
trimmed to two repeats to keep the job inside its time budget.  The
batched-vs-scalar lane speedup is computed from CPU time
(``time.process_time``), which is immune to machine-load noise.
Events/second uses each run's own event count; inline handler dispatch
advances the clock without firing events, so ``cycles_per_second``
(simulated cycles per wall second) is the throughput measure that does
not depend on engine bookkeeping.

The asserted properties here are completion, nonzero throughput, and
lane equivalence of the simulated outcome.  The regression gate against
the committed baseline lives in ``tools/check_perf.py`` (CI's ``perf``
job), with a wide tolerance for machine-to-machine variance; the
spread-aware ledger is ``bench/``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import nodes_under_test
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

#: (label, system, application, dataset, cache_bytes)
DISPATCH_WORKLOADS = [
    ("ocean-typhoon", "typhoon-stache", "ocean", "small", 2048),
    ("mp3d-typhoon", "typhoon-stache", "mp3d", "small", 2048),
    ("em3d-dirnnb", "dirnnb", "em3d", "small", 2048),
    ("ocean-blizzard", "blizzard-stache", "ocean", "small", 2048),
    ("ocean-decoupled", "decoupled-stache", "ocean", "small", 2048),
]

#: Batched-vs-scalar access-lane rows:
#: (label, system, application, dataset, cache_bytes, nodes,
#:  lane_floor, microbenchmark).
#: ``nodes=None`` uses the suite-wide node count.  The lane floor for
#: microbenchmark rows comes from REPRO_PERF_MIN_LANE_SPEEDUP (default
#: 1.3) at gate time; app rows carry their own conservative floor.  The
#: app rows run two nodes: the lanes pay off exactly when the event
#: queue gives a node room to run several hits back-to-back, and
#: lock-step phases shrink that window as the node count grows.
LANE_WORKLOADS = [
    ("sweep-lanes", "typhoon-stache", "sweep", "ref", 8192, None,
     None, True),
    ("ocean-lanes", "typhoon-stache", "ocean", "large", 8192, 2,
     1.02, False),
    ("barnes-lanes", "typhoon-stache", "barnes", "large", 8192, 2,
     1.01, False),
]

_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


def _repeats() -> int:
    return int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _dispatch_repeats() -> int:
    # Two repeats keep the whole perf job inside its time budget while
    # the lane rows get the full repeat count.
    return max(1, min(_repeats(), 2))


def _run_cell(system: str, app_name: str, dataset: str, cache_bytes: int,
              nodes: int) -> tuple[float, dict]:
    config = MachineConfig(nodes=nodes, seed=42).with_cache_size(cache_bytes)
    app = workload(app_name, dataset).build()
    start = time.perf_counter()
    outcome = run_application(system, app, config)
    return time.perf_counter() - start, outcome


def _time_lane_cell(system: str, app_name: str, dataset: str,
                    cache_bytes: int, nodes: int) -> dict:
    """Time one workload under scalar and batched access lanes.

    Wall clock is recorded for the throughput columns, but the lane
    speedup is computed from CPU time: the effect being measured is
    pure dispatch overhead in one process, and ``process_time`` is
    immune to the machine-load noise that dominates small wall-clock
    ratios.  Repeats interleave the two lane modes.
    """
    config = MachineConfig(nodes=nodes, seed=42).with_cache_size(cache_bytes)
    best: dict[str, dict] = {}
    for rep in range(_repeats()):
        order = ("scalar", "batched") if rep % 2 == 0 else ("batched", "scalar")
        for lanes in order:
            app = workload(app_name, dataset).build()
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            outcome = run_application(system, app, config, lanes=lanes)
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            if lanes not in best or cpu < best[lanes]["cpu"]:
                best[lanes] = {"cpu": cpu, "wall": wall, "outcome": outcome}

    row: dict = {
        "system": system,
        "application": app_name,
        "dataset": dataset,
        "cache_bytes": cache_bytes,
        "nodes": nodes,
        "lanes": {},
    }
    for lanes, sample in best.items():
        outcome = sample["outcome"]
        events = outcome["machine"].engine.events_fired
        cycles = outcome["execution_time"]
        wall = sample["wall"]
        row["lanes"][lanes] = {
            "wall_seconds": round(wall, 6),
            "cpu_seconds": round(sample["cpu"], 6),
            "events_fired": events,
            "events_per_second": round(events / wall, 1) if wall else 0.0,
            "cycles_per_second": round(cycles / wall, 1) if wall else 0.0,
            "simulated_cycles": cycles,
        }
    ts, tb = best["scalar"]["cpu"], best["batched"]["cpu"]
    row["lane_speedup"] = round(ts / tb, 3) if tb > 0 else None
    return row


def _time_cell(system: str, app_name: str, dataset: str, cache_bytes: int,
               nodes: int) -> dict:
    best: tuple[float, dict] | None = None
    for _ in range(_dispatch_repeats()):
        elapsed, outcome = _run_cell(system, app_name, dataset, cache_bytes,
                                     nodes)
        if best is None or elapsed < best[0]:
            best = (elapsed, outcome)
    elapsed, outcome = best
    events = outcome["machine"].engine.events_fired
    cycles = outcome["execution_time"]
    return {
        "system": system,
        "application": app_name,
        "dataset": dataset,
        "cache_bytes": cache_bytes,
        "wall_seconds": round(elapsed, 6),
        "events_fired": events,
        "events_per_second": round(events / elapsed, 1) if elapsed else 0.0,
        "cycles_per_second": round(cycles / elapsed, 1) if elapsed else 0.0,
        "simulated_cycles": cycles,
    }


def test_kernel_throughput():
    nodes = nodes_under_test()
    results = {}
    print()
    for label, system, app_name, dataset, cache_bytes in DISPATCH_WORKLOADS:
        cell = results[label] = _time_cell(system, app_name, dataset,
                                           cache_bytes, nodes)
        print(f"{label:>16}: "
              f"{cell['wall_seconds'] * 1e3:8.1f} ms  "
              f"{cell['events_per_second']:>10,.0f} events/s  "
              f"{cell['cycles_per_second']:>10,.0f} cycles/s")
        assert cell["events_fired"] > 0
        assert cell["events_per_second"] > 0

    lane_results = {}
    for label, system, app_name, dataset, cache_bytes, row_nodes, \
            lane_floor, micro in LANE_WORKLOADS:
        row = _time_lane_cell(system, app_name, dataset, cache_bytes,
                              row_nodes or nodes)
        row["lane_floor"] = lane_floor
        row["microbenchmark"] = micro
        lane_results[label] = row
        for lanes in ("scalar", "batched"):
            cell = row["lanes"][lanes]
            print(f"{label:>16} [{lanes:>11}]: "
                  f"{cell['cpu_seconds'] * 1e3:8.1f} ms cpu  "
                  f"{cell['events_per_second']:>10,.0f} events/s  "
                  f"{cell['cycles_per_second']:>10,.0f} cycles/s")
            assert cell["events_fired"] > 0
        print(f"{label:>16} [lane spdup ]: {row['lane_speedup']:8.2f}x "
              f"(batched vs scalar, cpu)")
        # The lanes change wall-clock only: simulated time, event count,
        # and every statistic are bit-identical across the lane axis
        # (the differential harness asserts the stats and images).
        cycles = {cell["simulated_cycles"] for cell in row["lanes"].values()}
        assert len(cycles) == 1, f"lanes disagree on cycles: {cycles}"
        events = {cell["events_fired"] for cell in row["lanes"].values()}
        assert len(events) == 1, f"lanes disagree on events: {events}"

    payload = {
        "benchmark": "kernel-throughput",
        "nodes": nodes,
        "repeats": _repeats(),
        "workloads": results,
        "lanes": lane_results,
    }
    _OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {_OUTPUT}")
