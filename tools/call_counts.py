#!/usr/bin/env python
"""Where a run's Python calls go: total, events, and the top functions.

Counts the ``call`` events ``sys.setprofile`` sees while a machine runs
its workers (building the machine and setting up the application are
not counted), grouped by code object.  Generator resumes count as calls,
as they do in ``tests/integration/test_call_budget.py``.  Two kinds of
run:

* a ledger workload from ``bench/workloads.py`` (its system, machine
  size, cache and input, at ``--seed``; 1 by default, the seed the
  ledger pins);
* a ``(system, app)`` small run: a fresh 4-node machine, the app's small
  data set, seed 42, after one uncounted warm-up run — the run the call
  budget test counts, so the totals agree.

Usage::

    python tools/call_counts.py --workload em3d-dirnnb [--seed 1] [--top 25]
    python tools/call_counts.py --system dirnnb --app em3d [--top 25]

Prints the total calls, the engine's events fired and the execution
time, then the ``--top`` functions by call count.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def ledger_workloads():
    """The ledger's workload definitions, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "_ledger_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def profiled_run(machine, worker_factory) -> dict:
    """Run ``machine``'s workers with every Python call counted by code."""
    counts: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1

    gc.collect()  # no earlier run's garbage is finalized in the count
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        machine.run_workers(worker_factory)
    finally:
        sys.setprofile(previous)
    return counts


def count_workload(name: str, seed: int = 1):
    """``(counts, machine)`` for one ledger workload run."""
    from repro.apps.base import AppContext
    from repro.harness.runner import build_machine

    ledger = ledger_workloads()
    spec = ledger.WORKLOADS[name]
    machine, protocol = build_machine(spec.system,
                                      ledger.machine_config(spec, seed))
    app = ledger.make_app(spec, seed)
    app.setup(machine, protocol)
    counts = profiled_run(
        machine, lambda node_id: app.worker(AppContext(machine, node_id)))
    return counts, machine


def count_small(system: str, app_name: str):
    """``(counts, machine)`` for a 4-node small run, seed 42, as the call
    budget test counts it: after one uncounted warm-up run."""
    from repro.apps.base import AppContext
    from repro.harness.runner import build_machine
    from repro.harness.workloads import workload
    from repro.sim.config import MachineConfig

    for counted in (False, True):
        machine, protocol = build_machine(system,
                                          MachineConfig(nodes=4, seed=42))
        app = workload(app_name, "small").build()
        app.setup(machine, protocol)

        def worker(node_id, machine=machine, app=app):
            return app.worker(AppContext(machine, node_id))

        if counted:
            return profiled_run(machine, worker), machine
        machine.run_workers(worker)


def _where(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{code.co_firstlineno}"


def report(counts: dict, machine, top: int) -> str:
    total = sum(counts.values())
    lines = [
        f"calls          {total:,}",
        f"events         {machine.engine.events_fired:,}",
        f"execution time {machine.execution_time:,}",
        "",
        f"{'calls':>12} {'share':>6}  function",
    ]
    ranked = sorted(counts.items(), key=lambda item: (-item[1], _where(item[0])))
    for code, calls in ranked[:top]:
        lines.append(f"{calls:>12,} {calls / total:>6.1%}  "
                     f"{code.co_qualname}  ({_where(code)})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a ledger workload name")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of a ledger workload run (default 1)")
    parser.add_argument("--system", help="system of a small run")
    parser.add_argument("--app", help="application of a small run")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list (default 25)")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.system is None and args.app is None):
        parser.error("give --workload, or --system and --app")
    if args.workload is not None:
        names = ledger_workloads().WORKLOADS
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}: "
                         f"expected one of {', '.join(names)}")
        counts, machine = count_workload(args.workload, args.seed)
    else:
        if args.system is None or args.app is None:
            parser.error("a small run needs both --system and --app")
        counts, machine = count_small(args.system, args.app)
    print(report(counts, machine, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
