"""Tests for processes and futures."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Future, Process


def test_future_resolve_and_value():
    engine = Engine()
    future = Future(engine)
    assert not future.done
    future.resolve(17)
    assert future.done
    assert future.value == 17


def test_future_value_before_resolve_raises():
    future = Future(Engine())
    with pytest.raises(SimulationError):
        _ = future.value


def test_future_double_resolve_raises():
    future = Future(Engine())
    future.resolve(1)
    with pytest.raises(SimulationError):
        future.resolve(2)


def test_future_callback_fires_as_event():
    engine = Engine()
    future = Future(engine)
    seen = []
    future.add_callback(seen.append)
    future.resolve("x")
    assert seen == []  # not synchronous
    engine.run()
    assert seen == ["x"]


def test_future_callback_after_resolution():
    engine = Engine()
    future = Future(engine)
    future.resolve(5)
    seen = []
    future.add_callback(seen.append)
    engine.run()
    assert seen == [5]


def test_process_waits_for_delays():
    engine = Engine()
    trace = []

    def body():
        trace.append(engine.now)
        yield 10
        trace.append(engine.now)
        yield 5
        trace.append(engine.now)

    Process(engine, body())
    engine.run()
    assert trace == [0, 10, 15]


def test_process_zero_delay_continues_inline():
    engine = Engine()
    trace = []

    def body():
        yield 0
        trace.append(engine.now)

    Process(engine, body())
    engine.run()
    assert trace == [0]


def test_process_blocks_on_future_and_receives_value():
    engine = Engine()
    future = Future(engine)
    got = []

    def body():
        value = yield future
        got.append(value)

    Process(engine, body())
    engine.schedule(20, future.resolve, "payload")
    engine.run()
    assert got == ["payload"]


def test_process_resolved_future_does_not_block():
    engine = Engine()
    future = Future(engine)
    future.resolve(9)
    got = []

    def body():
        value = yield future
        got.append((value, engine.now))

    Process(engine, body())
    engine.run()
    assert got == [(9, 0)]
    # The value went straight back in: the process's start is the only
    # event, with no callback round trip through the queue.
    assert engine._events_fired == 1


def test_pending_future_wait_resumes_behind_its_cycles_queued_events():
    """A resolve queues each waiter's resume at the resolving cycle,
    behind the events already queued there: one event per waiter."""
    engine = Engine()
    future = Future(engine)
    trace = []

    def waiter(name):
        value = yield future
        trace.append((name, value, engine.now))

    Process(engine, waiter("a"))
    Process(engine, waiter("b"))
    engine.schedule(10, future.resolve, "v")
    engine.schedule(10, trace.append, ("queued", None, 10))
    engine.run()
    assert trace == [("queued", None, 10), ("a", "v", 10), ("b", "v", 10)]
    # Two starts, the resolve, the queued event and one resume each.
    assert engine.events_fired == 6


def test_future_callbacks_fire_in_the_order_they_were_added():
    """Blizzard's spin shape: callbacks added before and after a process
    starts waiting fire in that order, one event each."""
    engine = Engine()
    future = Future(engine)
    trace = []

    def waiter():
        yield future
        trace.append("process")

    future.add_callback(lambda value: trace.append("first"))
    Process(engine, waiter())
    engine.run()
    future.add_callback(lambda value: trace.append("last"))
    engine.schedule(3, future.resolve, None)
    fired = engine.events_fired
    engine.run()
    assert trace == ["first", "process", "last"]
    assert engine.events_fired - fired == 4


def test_process_finished_future_carries_return_value():
    engine = Engine()

    def body():
        yield 1
        return "result"

    process = Process(engine, body())
    engine.run()
    assert process.finished.value == "result"


def test_negative_yield_rejected():
    engine = Engine()

    def body():
        yield -5

    Process(engine, body())
    with pytest.raises(SimulationError):
        engine.run()


def test_unsupported_yield_rejected():
    """A process drives one generator: a yielded sub-generator is an
    unsupported value like any other (workers compose with yield from)."""

    def sub():
        yield 3

    for value in ("nonsense", sub()):
        engine = Engine()

        def body():
            yield value

        Process(engine, body())
        with pytest.raises(SimulationError, match="unsupported value"):
            engine.run()


def test_two_processes_interleave_deterministically():
    engine = Engine()
    trace = []

    def body(name, period):
        for _ in range(3):
            yield period
            trace.append((name, engine.now))

    Process(engine, body("a", 2))
    Process(engine, body("b", 3))
    engine.run()
    # At cycle 6 both resume; b's resume event was scheduled at cycle 3,
    # a's at cycle 4, so FIFO tie-breaking runs b first.
    assert trace == [
        ("a", 2),
        ("b", 3),
        ("a", 4),
        ("b", 6),
        ("a", 6),
        ("b", 9),
    ]


def test_exception_in_process_propagates():
    engine = Engine()

    def body():
        yield 1
        raise RuntimeError("app bug")

    Process(engine, body())
    with pytest.raises(RuntimeError, match="app bug"):
        engine.run()
