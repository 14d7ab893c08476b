"""The discrete-event engine: a simulated clock plus an event queue.

Time is measured in processor cycles (integers or floats; the models in
this package only ever schedule integral delays, matching the paper's
cycle-count cost model in Table 2).

Events scheduled for the same cycle fire in the order they were scheduled
(FIFO tie-break via a monotone sequence number), which makes every
simulation deterministic for a given seed.

Structural fast paths keep the common cases cheap (see
``docs/performance.md``):

* **Cycle buckets.**  The queue is one bucket per pending cycle (the
  lone entry itself, or a deque once a second joins it) plus a heap of
  those cycles' times.  Sequence numbers are drawn in
  scheduling order, so appending keeps every bucket in ``seq`` order and
  firing bucket by bucket is exactly ``(time, seq)`` order — with an
  append and a popleft per event instead of a heap push and pop of a
  tuple compared element by element.  A zero-delay event joins the
  current cycle's bucket behind everything already there, as its
  ``seq`` says it must.  In lock-step phases many events share a cycle,
  so the time heap changes only once per cycle.  Per-node lookahead
  (below) depends on this: its replay steps are most of a lock-step
  phase's events, and on a heap of tuples they cost as much as the
  generator resumes they replace (docs/performance.md).

* **One kind of entry.**  Every queued event is a bare ``(fn, args,
  time)`` tuple: :meth:`Engine.call_soon` (zero delay),
  :meth:`Engine.schedule` / :meth:`Engine.schedule_at` (timed) and
  :meth:`Engine.post` return no handle, and a queued event always
  fires.  Every schedule ends in one call, :meth:`Engine.post`, the
  push itself, and :meth:`Engine.run` has one firing path.  A caller
  that may change its mind (the transport's retransmit timers) lets the
  event fire as a no-op, so after such a run :attr:`Engine.now` may be a
  spent timer's time.

* **Inline clock advance.**  :meth:`Engine.horizon` is the one window
  rule: the clock may move to any ``target < horizon()`` without a
  schedule/fire round trip, because no queued event could fire in the
  skipped window (``run(until=...)`` caps it just past ``until``).  The
  engine keeps that bound in :attr:`Engine.edge`, updated as buckets
  come and go, so the process layer, the dispatch loop, a node's hit
  path and the replay each test it with one attribute read — the
  Wind-Tunnel direct-execution trick applied to CPython overhead.

* **Per-node lookahead.**  Another node can touch a node only through a
  message, and a message takes at least :attr:`Engine.lookahead` cycles
  (the interconnect's least latency between distinct nodes).  So a CPU
  may run ahead of the clock up to ``horizon(node)``: the least of the
  queue head plus ``lookahead``, the earliest queued event that is the
  node's own or nobody's, and ``run(until=...)``, and never less than
  the engine's own window.  Every timed event records its time as a
  *fence*: in its node's fence list when it has an owner (:meth:`post`
  with ``owner``: a delivery belongs to its destination), in the shared
  list otherwise; a zero-delay event with no owner only marks its cycle,
  which closes every window until the clock moves on.  Events whose
  owner tracks them itself record none (:meth:`post` without ``owner``):
  a worker CPU's own resume — the only thread it can affect is waiting
  for it — and a handler processor's next item, whose time the processor
  keeps in ``due`` for its node's hit path.  Fence lists are heaps of times
  pruned lazily once the clock passes them (an entry at the current
  cycle may already have fired; keeping it is only conservative).  The
  bookkeeping starts at the first lookahead query, with everything then
  queued counted as nobody's, so a run whose CPUs never ask pays none of
  it.  Inside the window the CPU commits hits and compute charges
  against a local clock (:meth:`run_ahead` lets it move ``now`` there)
  and records the delays its generator would have yielded.
  :meth:`catch_up` restores the clock; :meth:`replay` then advances
  through those delays one by one under the ordinary window rule,
  scheduling a step wherever the path without lookahead would have
  scheduled a resume.  Every event therefore fires at the same
  ``(time, seq)`` as without lookahead: a resume scheduled straight at
  the local clock would draw an earlier ``seq`` and reorder its ties
  with other events of that cycle.  A schedule made while a node is
  ahead would break this, and :meth:`catch_up` raises
  :class:`SimulationError` if one was.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf, nextafter
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for structural misuse of the engine (e.g. scheduling in the past)."""


class Engine:
    """Event queue and simulated clock.

    Usage::

        engine = Engine()
        engine.schedule(10, print, "fires at cycle 10")
        engine.run()
        assert engine.now == 10
    """

    def __init__(self) -> None:
        #: Pending events by cycle: one entry, or a deque of entries in
        #: ``seq`` order.  Entries are ``(fn, args, time)`` tuples (each
        #: keeps its own time: an int and a float cycle share a bucket,
        #: and the clock takes the firing event's value).
        self._buckets: dict[float, deque] = {}
        #: Heap of the cycles that have a bucket.
        self._times: list[float] = []
        self._seq = 0
        self.now: float = 0
        self._events_fired = 0
        self._running = False
        #: The exclusive horizon cap an active ``run(until=...)`` sets
        #: (just past ``until``; inf when unbounded).
        self._cap: float = inf
        #: The exclusive bound on inline clock moves (:meth:`horizon`):
        #: the earliest queued cycle, capped just past ``until``; while
        #: a node runs ahead, its run's bound.  Kept up to date as
        #: buckets come and go, so a hot path reads one attribute.
        self.edge: float = inf
        #: Least delay with which one node's event can reach another
        #: node; 0 (the default) turns per-node lookahead off.
        self.lookahead: float = 0
        #: Fence heaps (see the module doc): per node, and for events
        #: without an owner.  None while lookahead is off.
        self._fences: list[list] | None = None
        self._fence_all: list | None = None
        self._nodes = 0
        #: The last cycle an unowned zero-delay event was queued in.
        self._soon: float = -inf
        #: The node running ahead of the clock, or None (see
        #: :meth:`run_ahead`; :attr:`edge` is then its run's bound), with
        #: the clock and sequence number it left at, and the delays it
        #: has skipped (one list for the engine's life: the hit path
        #: binds it once).
        self.ahead: int | None = None
        self._ahead_from: float = 0
        self._ahead_seq = 0
        self.skipped: list = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, time: float, fn: Callable[..., Any], *args: Any,
             owner: int | None = None) -> None:
        """Queue ``fn(*args)`` at ``time`` >= now: the one push every
        schedule ends in.

        Without ``owner`` the event records no fence: for events whose
        owner bounds its own node's lookahead itself — a waiting CPU
        thread's resume (the thread cannot be ahead while it waits) and a
        handler processor's next item (the node's hit path reads the
        processor's ``due``).  With ``owner`` the event belongs to that
        node (a message delivery): only its state may change when the
        event fires, so it bounds ``owner``'s lookahead and no other
        node's (see the module doc).

        A bucket is the lone entry itself until a second one joins it;
        then it becomes a deque.  Most cycles of a spread-out run hold
        one event, and they pay no deque.
        """
        if owner is not None:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule at cycle {time}; clock is already at "
                    f"{self.now}"
                )
            fences = self._fences
            if fences is not None:
                self._fence(fences[owner], time)
        self._seq += 1
        entry = (fn, args, time)
        buckets = self._buckets
        held = buckets.get(time)
        if held is None:
            buckets[time] = entry
            heappush(self._times, time)
            if time < self.edge:
                self.edge = time
        elif type(held) is deque:
            held.append(entry)
        else:
            buckets[time] = deque((held, entry))

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(*args)`` to fire this cycle, after pending events
        (process kick-off; ``Future.resolve`` inlines the same rule)."""
        now = self.now
        self.post(now, fn, *args)
        if self._fence_all is not None:
            self._soon = now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(*args)`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        time = self.now + delay
        self.post(time, fn, *args)
        fences = self._fence_all
        if fences is not None:
            self._fence(fences, time)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(*args)`` to fire at absolute cycle ``time``."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; clock is already at {now}"
            )
        self.post(time, fn, *args)
        fences = self._fence_all
        if fences is not None:
            self._fence(fences, time)

    def _fence(self, fences: list, time: float) -> None:
        """Record ``time`` in a fence heap; passed entries are dropped
        when the heap is read (``horizon``) or grows long.  An event for
        the current cycle only marks the cycle (``_soon``): it closes
        every window until the clock moves on."""
        if time == self.now:
            self._soon = time
            return
        heappush(fences, time)
        if len(fences) > 64:
            self._prune(fences)

    def _prune(self, fences: list) -> None:
        """Drop the fences the clock has passed."""
        now = self.now
        while fences and fences[0] < now:
            heappop(fences)

    def enable_lookahead(self, latency: float, nodes: int) -> None:
        """Turn per-node lookahead on for nodes ``0..nodes-1``: no event
        of one node reaches another in less than ``latency`` cycles.
        ``latency`` 0 turns it off.  The fence bookkeeping starts at the
        first lookahead query (:meth:`horizon`), so a run that never
        asks pays none of it."""
        self.lookahead = latency
        self._nodes = nodes
        self._fences = self._fence_all = None

    # ------------------------------------------------------------------
    # Inline time advance and per-node lookahead
    # ------------------------------------------------------------------
    def horizon(self, node: int | None = None) -> float:
        """The exclusive bound on inline clock moves.

        Moving the clock to any ``target < horizon()`` (:attr:`edge`) is
        indistinguishable from scheduling a wakeup and firing it: no
        queued event fires in between and ``run(until=...)`` is not
        crossed.  With ``node``, the bound is that node's lookahead
        window instead, never less than the engine's: events of other
        nodes inside it cannot reach the node before it closes (see the
        module doc).  While a node is ahead both are its run's bound.
        """
        edge = self.edge
        times = self._times
        now = self.now
        if (node is None or self.ahead is not None or not self.lookahead
                or not times or self._soon == now):
            return edge
        fences = self._fences
        if fences is None:
            # The first query starts the bookkeeping: everything queued
            # so far counts as nobody's (only conservative).
            fences = self._fences = [[] for _ in range(self._nodes)]
            self._fence_all = list(times)
        bound = times[0] + self.lookahead
        for fence in (fences[node], self._fence_all):
            while fence and fence[0] < now:
                heappop(fence)
            if fence and fence[0] < bound:
                bound = fence[0]
        # A fence at the current cycle may have fired already.
        if bound < edge:
            return edge
        cap = self._cap
        return bound if bound < cap else cap

    def _set_edge(self) -> None:
        """Recompute :attr:`edge` from the queue and the ``until`` cap."""
        times = self._times
        edge = times[0] if times else inf
        cap = self._cap
        self.edge = edge if edge < cap else cap

    def run_ahead(self, node: int, bound: float) -> None:
        """Let ``node``'s CPU run ahead of the clock up to ``bound``.

        The caller then moves ``now`` itself and appends every delay it
        skips to :attr:`skipped`; :meth:`catch_up` ends the run.
        """
        self.ahead = node
        self.edge = bound
        self._ahead_from = self.now
        self._ahead_seq = self._seq

    def catch_up(self, into: deque) -> None:
        """End the lookahead run: restore the clock and move the skipped
        delays to ``into`` (the caller replays them in order)."""
        node = self.ahead
        self.ahead = None
        self._set_edge()
        local, self.now = self.now, self._ahead_from
        if self._seq != self._ahead_seq:
            raise SimulationError(
                f"{self._seq - self._ahead_seq} event(s) scheduled while "
                f"node {node} ran ahead to cycle {local} of {self.now}; "
                "a sync point is missing before the schedule"
            )
        into.extend(self.skipped)
        self.skipped.clear()

    def replay(self, delays: deque, done: Callable[[], Any],
               fenced: bool = False) -> None:
        """Advance through ``delays`` as a process yielding them would.

        Each delay moves the clock inline while ``now + delay <
        horizon()`` and otherwise becomes an event at ``now + delay``
        that carries on from there, so every sequence number is drawn
        where the yielding process would have drawn it.  ``done()`` runs
        once the deque is empty.  The steps record no fence unless
        ``fenced`` (see :meth:`post`).
        """
        now = self.now
        horizon = self.edge
        while delays:
            target = now + delays.popleft()
            if target >= horizon:
                self.now = now
                self.post(target, self.replay, delays, done, fenced)
                if fenced and self._fence_all is not None:
                    self._fence(self._fence_all, target)
                return
            now = target
        self.now = now
        done()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the next event lies past ``until``.

        ``until`` is an absolute cycle count: events at ``until`` fire,
        and the clock is left there (or where it already was, if later).
        Without it the clock is left at the last event's time.

        One bucket fires at a time.  Each entry is taken off before it
        fires, and a bucket leaves the queue with its last entry, so
        what that entry schedules for this cycle opens a fresh bucket
        behind it; until then the bucket's own deque takes them.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        if until is None:
            until = inf
        else:
            self._cap = nextafter(until, inf)
            self._set_edge()
        cap = self._cap
        times = self._times
        buckets = self._buckets
        try:
            while times:
                time = times[0]
                if time > until:
                    break
                held = buckets[time]
                if type(held) is deque:
                    popleft = held.popleft
                else:
                    # A lone entry: fire it below as the bucket's last.
                    popleft = None
                while True:
                    if popleft is None:
                        entry = held
                        last = True
                    else:
                        entry = popleft()
                        last = not held
                    if last:
                        heappop(times)
                        del buckets[time]
                        edge = times[0] if times else inf
                        self.edge = edge if edge < cap else cap
                    self.now = entry[2]
                    self._events_fired += 1
                    entry[0](*entry[1])
                    if last:
                        break
            if self.now < until < inf:
                self.now = until
        finally:
            self._running = False
            self._cap = inf
            if self.ahead is not None:
                # A generator raised while its node was ahead: leave the
                # clock where the engine had it.
                self.ahead = None
                self.skipped.clear()
                self.now = self._ahead_from
            self._set_edge()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued.

        O(1): every schedule draws a sequence number, so this is the
        number drawn minus the events fired — never a scan, so stray
        ``repr(engine)`` calls stay cheap in long runs.
        """
        return self._seq - self._events_fired

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self.pending})"
