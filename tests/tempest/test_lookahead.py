"""Per-node lookahead: a CPU commits hits ahead of the clock, then replays.

Each case runs the same workers twice: with batched lanes (lookahead on)
and with scalar lanes (lookahead off, the oracle).  Everything the
simulation shows — handler cycles, finish times, the order of same-cycle
events, events fired and the final sequence number — must agree, and
the batched run must really have run ahead.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.apps.base import AppContext
from repro.backends import compose
from repro.sim.config import MachineConfig
from repro.sim.engine import Engine, SimulationError
from repro.sim.process import SYNC, Future


def machine_for(system, nodes, lanes):
    machine, protocol = compose(system, MachineConfig(nodes=nodes, seed=5))
    machine.batch_lanes = lanes == "batched"
    region = machine.heap.allocate(4096, home=0, label="data")
    protocol.setup_region(region)
    return machine, region.base


def opened_runs(monkeypatch):
    """Record the ``(node, now, bound)`` of every lookahead run opened."""
    runs = []
    run_ahead = Engine.run_ahead

    def record(engine, node, bound):
        runs.append((node, engine.now, bound))
        run_ahead(engine, node, bound)

    monkeypatch.setattr(Engine, "run_ahead", record)
    return runs


def ticker(ctx, steps):
    """A worker whose one-cycle charges keep an event in every window."""
    for _ in range(steps):
        yield from ctx.compute(overhead=1)


# ----------------------------------------------------------------------
# The engine guard
# ----------------------------------------------------------------------
def test_a_schedule_while_a_node_is_ahead_fails_loudly():
    engine = Engine()
    engine.enable_lookahead(11, 2)
    engine.schedule(5, lambda: None)
    engine.run_ahead(0, engine.horizon(0))
    engine.now += 3
    engine.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="ran ahead"):
        engine.catch_up(deque())


def test_events_queued_before_the_first_query_count_as_nobodys():
    """The fence bookkeeping starts at the first lookahead query; what
    was queued before it bounds every node."""
    engine = Engine()
    engine.enable_lookahead(11, 2)
    seen = []

    def probe():
        seen.append(engine.horizon(0))
        engine.post(3, lambda: None, owner=1)
        seen.append((engine.edge, engine.horizon(0), engine.horizon(1)))

    engine.post(6, lambda: None, owner=1)
    engine.schedule_at(1, probe)
    engine.run()
    # Node 1's event at 6 bounds node 0 too; the one at 3, queued after
    # the first query, bounds node 1 only.
    assert seen == [6, (3, 6, 3)]


def test_a_worker_that_skips_its_sync_point_fails_loudly(monkeypatch):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    machine, base = machine_for("typhoon:stache", 2, "batched")
    runs = opened_runs(monkeypatch)

    machine.nodes[1].tempest.register_handler(
        "probe", lambda tempest, message: None, instructions=4)

    def worker(node_id):
        ctx = AppContext(machine, node_id)
        if node_id == 1:
            yield from ticker(ctx, 200)
            return
        yield from ctx.read(base)          # a miss: the block comes in
        yield SYNC
        # Hits: the batched lane opens a run and commits them ahead.
        yield from ctx.read_run([base] * 4)
        # A send with no SYNC before it: scheduled while ahead.
        machine.nodes[0].tempest.send(1, "probe")

    with pytest.raises(SimulationError, match="sync point is missing"):
        machine.run_workers(worker)
    assert runs


def test_the_clock_is_restored_when_a_worker_raises_ahead(monkeypatch):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    machine, base = machine_for("typhoon:stache", 2, "batched")
    runs = opened_runs(monkeypatch)

    engine = machine.engine
    seen = []

    def worker(node_id):
        ctx = AppContext(machine, node_id)
        if node_id == 1:
            yield from ticker(ctx, 200)
            return
        yield from ctx.read(base)
        yield SYNC
        yield from ctx.read_run([base] * 4)
        seen.append((engine.ahead, engine.now))
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        machine.run_workers(worker)
    (ahead, local), = seen
    assert ahead == 0
    assert engine.ahead is None and not engine.skipped
    opened = [now for node, now, _bound in runs if node == 0][-1]
    assert engine.now == opened < local


# ----------------------------------------------------------------------
# Same behaviour as the scalar oracle
# ----------------------------------------------------------------------
def delivery_run(lanes):
    """Node 1 sends node 0 a message while node 0 reads hits in a loop."""
    machine, base = machine_for("blizzard:stache", 3, lanes)
    engine = machine.engine
    handled = []
    machine.nodes[0].tempest.register_handler(
        "probe", lambda tempest, message: handled.append(engine.now),
        instructions=4)
    sent = []

    def worker(node_id):
        ctx = AppContext(machine, node_id)
        if node_id == 0:
            yield from ctx.read(base)
            for _ in range(40):
                yield from ctx.read_run([base] * 3)
        elif node_id == 1:
            yield from ticker(ctx, 120)
            yield SYNC
            sent.append(engine.now)
            machine.nodes[1].tempest.send(0, "probe")
            yield from ticker(ctx, 120)
        else:
            yield from ticker(ctx, 300)

    finish = machine.run_workers(worker)
    return dict(handled=handled, sent=sent, finish=finish,
                events=engine.events_fired, seq=engine._seq)


def test_a_delivery_inside_the_window_stops_the_run(monkeypatch):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    scalar = delivery_run("scalar")
    runs = opened_runs(monkeypatch)
    batched = delivery_run("batched")
    assert batched == scalar
    # The handler ran at the first poll after the arrival, as in scalar
    # mode, and node 0 ran ahead both before and after it.
    arrival = scalar["sent"][0] + 11
    assert scalar["handled"][0] >= arrival
    node0 = [(now, bound) for node, now, bound in runs if node == 0]
    assert any(now < arrival for now, _ in node0)
    assert any(now >= arrival for now, _ in node0)
    # No run of node 0 that opened before the arrival reached past it.
    assert all(bound <= arrival for now, bound in node0 if now < arrival)


def tie_run(lanes):
    """Two nodes doing the same hits reach their sync points in one cycle."""
    machine, base = machine_for("typhoon:stache", 3, lanes)
    engine = machine.engine
    log = []

    def worker(node_id):
        ctx = AppContext(machine, node_id)
        if node_id == 2:
            yield from ctx.barrier()
            yield from ticker(ctx, 300)
            return
        yield from ctx.read(base + 64 * node_id)
        yield from ctx.barrier()
        for step in range(6):
            yield from ctx.read_run([base + 64 * node_id] * 5)
            yield SYNC
            log.append((engine.now, node_id, step))

    machine.run_workers(worker)
    return dict(log=log, events=engine.events_fired, seq=engine._seq)


def test_tied_resumes_keep_their_scalar_order(monkeypatch):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    scalar = tie_run("scalar")
    runs = opened_runs(monkeypatch)
    batched = tie_run("batched")
    assert batched == scalar
    assert {node for node, _now, _bound in runs} >= {0, 1}
    cycles = [now for now, _node, _step in scalar["log"]]
    assert len(cycles) > len(set(cycles)), "no two sync points tied"


# ----------------------------------------------------------------------
# The lookahead bound never falls below the engine's window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("resume", ["future", "delay"])
def test_a_fired_fence_leaves_the_engine_window_to_the_lane(monkeypatch,
                                                            resume):
    """A worker resumes in the cycle of an event that has fired (the one
    resolving its Future, or one queued just before its own wakeup); a
    run too long for the engine's window must still commit the prefix
    that fits it."""
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    machine, base = machine_for("typhoon:stache", 2, "batched")
    engine = machine.engine
    node = machine.nodes[0]
    seen = []

    def worker(node_id):
        if node_id == 1:
            return
        yield from AppContext(machine, node_id).read(base)
        resumed = Future(engine)
        engine.schedule(5, resumed.resolve, None)
        engine.schedule(25, lambda: None)
        engine.horizon(node_id)  # starts the fence bookkeeping
        yield resumed if resume == "future" else 5
        now = engine.now
        out = []
        seen.append((now, node.run_read_prefix([base] * 100, 0, out),
                     engine.now - now, engine.ahead))

    machine.run_workers(worker)
    (now, index, moved, ahead), = seen
    # The queued event 20 cycles on bounds the prefix: elements complete
    # at now+1 .. now+19, inside the engine's own window.
    assert index == 19 and moved == 19 * node._hit_cycles
    assert ahead is None
