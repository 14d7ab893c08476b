"""Tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, fired.append, "c")
    engine.schedule(10, fired.append, "a")
    engine.schedule(20, fired.append, "b")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_same_cycle_events_fire_fifo():
    engine = Engine()
    fired = []
    for tag in range(5):
        engine.schedule(7, fired.append, tag)
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_handles_and_posts_share_a_cycle_in_fifo_order():
    """``schedule``, ``schedule_at`` and ``post`` fill one bucket: a lone
    entry, then a deque, in scheduling order either way."""
    engine = Engine()
    fired = []
    engine.schedule(7, fired.append, "schedule")
    engine.post(7, fired.append, "post")
    engine.schedule_at(7, fired.append, "schedule_at")
    engine.post(7, fired.append, "owned", owner=0)
    engine.run()
    assert fired == ["schedule", "post", "schedule_at", "owned"]
    assert engine.events_fired == 4 and engine.now == 7


def test_owned_post_in_the_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.post(5, lambda: None, owner=1)
    assert engine.pending == 0


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(5, lambda: engine.schedule(0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [5]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, "early")
    engine.schedule(100, fired.append, "late")
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_fires_events_at_the_bound():
    engine = Engine()
    fired = []
    engine.schedule(50, fired.append, "at")
    engine.schedule(51, fired.append, "past")
    engine.run(until=50)
    assert fired == ["at"]
    assert engine.now == 50
    assert engine.pending == 1


def test_run_until_advances_clock_even_with_empty_queue():
    engine = Engine()
    engine.run(until=99)
    assert engine.now == 99


def test_events_fired_counter():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_fired == 4


def test_engine_not_reentrant():
    engine = Engine()

    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, nested)
    engine.run()


def test_exception_in_event_propagates():
    engine = Engine()

    def boom():
        raise ValueError("boom")

    engine.schedule(1, boom)
    with pytest.raises(ValueError):
        engine.run()


# ----------------------------------------------------------------------
# Zero-delay fast lane: ordering must be bit-identical to a single heap.
# ----------------------------------------------------------------------

def test_zero_delay_interleaved_with_same_cycle_heap_events():
    """Heap events for the current cycle scheduled *before* a zero-delay
    event must fire first (smaller seq); scheduled *after*, they fire
    after.  This is the (time, seq) merge across the two lanes."""
    engine = Engine()
    fired = []

    def at_five():
        engine.schedule_at(5, fired.append, "heap-before")   # heap lane, seq n
        engine.schedule(0, fired.append, "fifo-middle")      # fifo lane, seq n+1
        engine.schedule_at(5, fired.append, "heap-after")    # heap lane, seq n+2

    engine.schedule(5, at_five)
    engine.run()
    assert fired == ["heap-before", "fifo-middle", "heap-after"]


def test_zero_delay_chain_precedes_future_heap_events():
    engine = Engine()
    fired = []
    engine.schedule(3, fired.append, "later")

    def chain(depth):
        fired.append(f"zero-{depth}")
        if depth < 3:
            engine.schedule(0, chain, depth + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert fired == ["zero-0", "zero-1", "zero-2", "zero-3", "later"]
    assert engine.now == 3


def test_schedule_at_current_time_uses_fast_lane_in_order():
    engine = Engine()
    fired = []

    def now_and_later():
        engine.schedule_at(engine.now, fired.append, "at-now-1")
        engine.schedule(0, fired.append, "delay-0")
        engine.schedule_at(engine.now, fired.append, "at-now-2")

    engine.schedule(2, now_and_later)
    engine.run()
    assert fired == ["at-now-1", "delay-0", "at-now-2"]


# ----------------------------------------------------------------------
# Inline clock advance: a caller may try to advance the clock to
# ``target`` inline, and may do so only while ``target < horizon()``.
# ----------------------------------------------------------------------

def test_try_advance_moves_clock_when_queue_cannot_interfere():
    engine = Engine()
    engine.schedule(100, lambda: None)
    assert engine.horizon() == engine.edge == 100
    target = engine.now + 50
    assert target < engine.horizon()   # an inline move is safe
    engine.now = target
    engine.run()
    assert engine.now == 100
    assert engine.horizon() == float("inf")


def test_try_advance_refuses_when_event_in_window():
    engine = Engine()
    engine.schedule(10, lambda: None)
    assert not engine.now + 10 < engine.horizon()   # boundary: event at target
    assert not engine.now + 15 < engine.horizon()   # event strictly inside window
    assert engine.now == 0


def test_try_advance_refuses_when_fifo_nonempty():
    engine = Engine()
    engine.schedule(0, lambda: None)
    assert engine.horizon() == engine.now
    assert not engine.now + 5 < engine.horizon()


def test_try_advance_honours_run_until_bound():
    engine = Engine()
    observed = []

    def probe():
        observed.append(engine.horizon())
        observed.append(engine.now + 100 < engine.horizon())  # crosses until=20
        observed.append(engine.now + 10 < engine.horizon())   # inside the bound

    engine.schedule(5, probe)
    engine.run(until=20)
    # The cap sits just past ``until``: a move to 20 itself is allowed.
    assert observed[0] == math.nextafter(20, math.inf)
    assert observed[1:] == [False, True]
    assert engine.now == 20
    assert engine.horizon() == float("inf")


def test_run_until_with_mixed_lanes_stops_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "in")
    engine.schedule(30, fired.append, "out")

    def spawn_zero():
        engine.schedule(0, fired.append, "zero")

    engine.schedule(10, spawn_zero)
    engine.run(until=20)
    assert fired == ["in", "zero"]
    assert engine.now == 20
    engine.run()
    assert fired == ["in", "zero", "out"]
