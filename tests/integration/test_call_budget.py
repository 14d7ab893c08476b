"""A timing-free guard on the handler path: Python calls per run.

Wall-clock gates are noisy on small shared hosts; the number of
Python-level calls a fixed-seed run makes is not.  Each case runs one
small application once to warm every lazy cache (handler rows, imports),
then counts the ``call`` events ``sys.setprofile`` sees while a fresh
machine runs it again.  A count may not grow more than 2% over the
count pinned here: a change that adds a forwarding hop to a per-event
path fails, one that removes hops may lower the pin.

The pins were first taken when the Tempest facade bound its
pass-through Table 1 operations and the engine's ``post`` became the
push itself (docs/performance.md, "Node models and data plumbing"); at
the commit before, the same runs made 311,387 (mp3d) and 118,392 (em3d)
calls.  The mp3d pin fell from 211,339 when ``resume`` was bound too and
the dispatcher's fault row stopped calling ``fault_handler_for``, and
from 208,537 when Stache's fault and request handlers unpacked their
argument themselves.  The DirNNB em3d pin fell from 100,448 when the
DirNNB CPU, sink and directory reached their state in one call and EM3D
issued each edge as two reads from addresses built once; the same change
added the decoupled em3d pin (68,595 at the commit before), and fell
again from 79,087 when ``AppContext`` bound ``compute`` per node, so a
node without a charge lane calls no stub.  All three fell (from 206,324,
76,801 and 63,714) when a process began taking a yielded Future inline
and a resolve began queueing its callbacks itself, the barrier stopped
formatting its stat key per arrival, and the DirNNB directory began
calling each operation straight from a table; the same change added the
Blizzard ocean pin (90,205 at the commit before), which covers its spin
loop and the hardware barrier.

Each pin also fixes the run's events fired and execution time exactly:
a lower count must come from fewer calls, never from a run that fires
fewer events or ends at another cycle.

``tools/call_counts.py`` counts the same run and lists where the calls
go; its total must equal :func:`count_calls`.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.apps.base import AppContext
from repro.harness.runner import build_machine
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

#: (system, app) -> pinned (Python-level calls, events fired, execution
#: time) of one 4-node small run.
PINNED = {
    ("typhoon:stache", "mp3d"): (200_375, 17_437, 96_193),
    ("dirnnb", "em3d"): (70_841, 8_719, 26_999),
    ("decoupled:em3d-update", "em3d"): (63_137, 6_798, 16_789),
    ("blizzard:stache", "ocean"): (88_293, 11_381, 24_725),
}

SLACK = 1.02


def count_calls(system: str, app_name: str):
    """``(calls, machine)``: the Python-level calls while a fresh 4-node
    machine runs ``app_name`` (small dataset, seed 42) on ``system``,
    and the machine after the run; setup is not counted."""
    machine, protocol = build_machine(system, MachineConfig(nodes=4, seed=42))
    app = workload(app_name, "small").build()
    app.setup(machine, protocol)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        machine.run_workers(
            lambda node_id: app.worker(AppContext(machine, node_id)))
    finally:
        sys.setprofile(previous)
    return calls, machine


@pytest.mark.parametrize("system,app_name", sorted(PINNED))
def test_calls_stay_within_budget(system, app_name, monkeypatch):
    # A conformance monitor would add its own calls to every event.
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    count_calls(system, app_name)  # warm-up
    calls, machine = count_calls(system, app_name)
    pinned, events, execution_time = PINNED[(system, app_name)]
    assert (machine.engine.events_fired, machine.execution_time) == (
        events, execution_time), "the budgeted run itself changed"
    assert calls <= pinned * SLACK, (
        f"{system} {app_name}/small made {calls:,} Python calls, more than "
        f"{SLACK:.0%} of the pinned {pinned:,}: a per-event path grew a "
        "call (see docs/performance.md)")


def test_call_counts_tool_totals_the_budgeted_run(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    path = Path(__file__).resolve().parents[2] / "tools" / "call_counts.py"
    spec = importlib.util.spec_from_file_location("_call_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # Without cyclic collection, no finalizer of an earlier run's
    # garbage runs inside either count.
    gc.disable()
    try:
        assert tool.main(
            ["--system", "dirnnb", "--app", "em3d", "--top", "3"]) == 0
        total, _machine = count_calls("dirnnb", "em3d")
    finally:
        gc.enable()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "calls"
    assert int(lines[0].split()[1].replace(",", "")) == total
    assert len([line for line in lines if "(" in line]) == 3
