"""Generator-based simulated processes and futures.

A *process* is a Python generator driven by the engine.  The generator
yields one of:

* a non-negative number — advance this process's part of simulated time by
  that many cycles (a compute charge or a fixed hardware latency);
* a :class:`Future` — suspend until the future resolves; the resolved value
  is sent back into the generator;
* :data:`SYNC` — a sync point: end any lookahead run first (below).

A process drives exactly one generator; sub-routines compose with
``yield from``, so the process never sees them.

This is the mechanism by which application kernels "execute": the CPU model
in :mod:`repro.tempest.node` wraps an application generator in a process,
services cache hits inline, and yields futures for misses so the protocol
machinery can run.

**Lookahead runs.**  A node's hit path may commit hits and compute
charges ahead of the clock (:meth:`Engine.run_ahead
<repro.sim.engine.Engine.run_ahead>`) while the process's generator
runs.  Whatever the generator yields next is a sync point: the process
ends the run (:meth:`Engine.catch_up
<repro.sim.engine.Engine.catch_up>`), has the engine replay the skipped
delays under the ordinary per-yield window rule (:meth:`Engine.replay
<repro.sim.engine.Engine.replay>`), and only then acts on the yielded
value.  Code that touches another node's state or schedules an event
before its first yield yields :data:`SYNC` first.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from repro.sim.engine import Engine, SimulationError


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Yielded to end the node's lookahead run before the code after it
#: runs; a no-op when the node is not ahead.
SYNC = _Marker("SYNC")

#: ``Process._interpret``'s "suspended: something else resumes it".
_SUSPENDED = _Marker("SUSPENDED")


class _Exit:
    """A generator's return value, held over until the replay ends."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class Future:
    """A one-shot value that a process can block on.

    Futures are the only inter-process synchronization primitive in the
    kernel; barriers, message replies, and thread resume are all built on
    them.
    """

    __slots__ = ("engine", "done", "_value", "_callbacks")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.done = False  # a plain field: a spinning CPU reads it often
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def value(self) -> Any:
        if not self.done:
            raise SimulationError("future not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future; each callback fires as a zero-delay event,
        in the order added (one push each, as ``Engine.call_soon``)."""
        if self.done:
            raise SimulationError("future resolved twice")
        self.done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            engine = self.engine
            now = engine.now
            for callback in callbacks:
                engine.post(now, callback, value)
            if engine._fence_all is not None:
                engine._soon = now

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when resolved (immediately if already done)."""
        if self.done:
            self.engine.call_soon(callback, self._value)
        else:
            self._callbacks.append(callback)


class Process:
    """Drives a generator through simulated time.

    The ``finished`` future resolves with the generator's return value.
    An uncaught exception in the generator propagates out of the engine's
    ``run`` call — silent failure would corrupt experiment results.
    """

    def __init__(self, engine: Engine, generator: Generator,
                 name: str = "process", owner: int | None = None):
        self.engine = engine
        self.name = name
        #: The node whose CPU this process is (a node has one): its
        #: resumes bound no node's lookahead (see Engine.post).  With
        #: None they bound every node's.
        self.owner = owner
        self.finished = Future(engine)
        self._send = generator.send
        #: Delays skipped by a lookahead run, still to replay, and the
        #: yielded value to act on once they are.
        self._replay: deque = deque()
        self._held: Any = None
        #: Schedules this CPU's resume at an absolute time: a worker's
        #: own resume bounds no node's lookahead (Engine.post), any
        #: other process's bounds every node's.
        self._wake = (engine.post if owner is not None
                      else engine.schedule_at)
        engine.call_soon(self._advance, None)

    # ------------------------------------------------------------------
    def _advance(self, send_value: Any = None) -> None:
        """Resume the generator and interpret what it yields next.

        Consecutive numeric yields are the hot path: whenever the engine
        can prove no other event would fire in the skipped window
        (``target < Engine.edge``), the delay is applied inline and the
        generator is resumed immediately — an arbitrarily long run of
        compute charges and serviced cache hits then collapses into this
        one tight loop, entering the event queue only on a miss, fault,
        or sync operation (a Future, or a delay that overlaps pending
        work).  A yielded Future costs no call here; its resolution costs
        one push per waiter.  Whatever the generator yields while its
        node is ahead ends the lookahead run first (:meth:`_catch_up`).
        """
        engine = self.engine
        send = self._send
        while True:
            try:
                yielded = send(send_value)
            except StopIteration as stop:
                yielded = _Exit(stop.value)
            if engine.ahead is not None:
                self._catch_up(yielded)
                return
            kind = type(yielded)
            if kind is int or kind is float:
                if yielded < 0:
                    raise SimulationError(
                        f"{self.name} yielded negative delay {yielded}"
                    )
                send_value = None
                if yielded == 0:
                    continue
                target = engine.now + yielded
                if target < engine.edge:
                    engine.now = target
                    continue
                self._wake(target, self._advance)
                return
            if kind is Future:
                # A resolved future's value goes straight back in; a
                # pending one resumes us (add_callback, without calls).
                if yielded.done:
                    send_value = yielded._value
                    continue
                yielded._callbacks.append(self._advance)
                return
            send_value = self._interpret(yielded)
            if send_value is _SUSPENDED:
                return

    def _interpret(self, yielded: Any) -> Any:
        """Act on a non-delay yield: the value to send back in, or
        ``_SUSPENDED`` when something else will resume the process."""
        if type(yielded) is _Exit:
            self.finished.resolve(yielded.value)
            return _SUSPENDED
        if yielded is SYNC:
            return None
        if isinstance(yielded, Future):
            # Held over a lookahead replay (_advance takes the rest).
            if yielded.done:
                return yielded.value
            yielded.add_callback(self._advance)
            return _SUSPENDED
        if isinstance(yielded, (int, float)):
            # A delay: a numeric subclass (e.g. bool) the exact-type fast
            # path skips, or one held over a lookahead replay.
            if yielded < 0:
                raise SimulationError(
                    f"{self.name} yielded negative delay {yielded}"
                )
            if not yielded:
                return None
            engine = self.engine
            target = engine.now + yielded
            if target < engine.edge:
                engine.now = target
                return None
            self._wake(target, self._advance)
            return _SUSPENDED
        raise SimulationError(
            f"{self.name} yielded unsupported value {yielded!r}; "
            "expected a delay, a Future, or SYNC"
        )

    def _catch_up(self, yielded: Any) -> None:
        """End the node's lookahead run, replay it, then act on ``yielded``.

        The engine replays the skipped delays exactly where this
        generator would have scheduled its resumes (:meth:`Engine.replay
        <repro.sim.engine.Engine.replay>`), so it sees the same events in
        the same order as without lookahead.
        """
        engine = self.engine
        engine.catch_up(self._replay)
        self._held = yielded
        engine.replay(self._replay, self._replayed, self.owner is None)

    def _replayed(self) -> None:
        """The replay is over: act on the value held over it."""
        held, self._held = self._held, None
        value = self._interpret(held)
        if value is not _SUSPENDED:
            self._advance(value)

    def __repr__(self) -> str:
        state = "done" if self.finished.done else "running"
        return f"Process({self.name}, {state})"
