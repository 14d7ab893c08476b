"""Per-layer host time, measured by wrapping each layer's boundaries.

A traced run replaces the callables at every layer boundary with timing
wrappers, all installed from here: nothing in ``src/`` changes.  The
tracer keeps one "current layer" and the time it was entered.  Entering
a boundary charges the time since then to the layer being left; leaving
it charges the time to the boundary's layer and returns to the caller's.
A layer's total is therefore its **self time**: the time inside its
boundaries minus the time inside the boundaries nested in them.  The
self times add up to the time inside ``Engine.run`` exactly.

Install in two steps, in this order:

1. :meth:`LayerTracer.wrap_handlers` before the compiled kernel
   installs.  Guarded handlers become ``guard.wrap(timed(raw))``, so the
   kernel still peels the guard through ``__wrapped__``/``__guard__``
   and fuses the duplicate check, then calls the timed raw handler.
   (``functools.wraps`` is avoided: a ``__wrapped__`` on the timer would
   let the kernel peel the timer off too.)
2. :meth:`LayerTracer.wrap_boundaries` after the kernel installs and
   before ``run_workers`` builds the ``AppContext`` objects, which
   capture ``access_inline`` and the lanes when they are made.  The
   wrappers then time the kernel's fused closures, not the interpreted
   methods under them.

A tracer made with ``wrap=False`` changes nothing and only records the
code object of every boundary it finds (``codes``), so the sampling
profiler can attribute its samples by the very same boundaries.

Where the compiled kernel folds one layer into another, the inner time
is reported under the outer boundary and the inner layer is listed in
``fused``.  A boundary the code no longer has is listed in ``absent``.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

#: Layers, named after the ``src/repro/`` packages they time.
LAYERS = ("sim", "apps", "memory", "typhoon", "blizzard", "decoupled",
          "protocols", "tempest", "network")

#: Time outside every boundary (before ``Engine.run`` starts).
OUTSIDE = "outside"


def _free_var(fn, name):
    """The closure cell ``fn`` holds for free variable ``name``, or None."""
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is None or closure is None or name not in code.co_freevars:
        return None
    return closure[code.co_freevars.index(name)]


def _call(method, *args):
    return method(*args)


class LayerTracer:
    """Self time and work counts per layer for one traced run."""

    def __init__(self, wrap: bool = True):
        self.wrapping = wrap
        self.self_s = dict.fromkeys(LAYERS + (OUTSIDE,), 0.0)
        #: Work counts by metric name (plain dict: the wrappers are hot).
        self.counts: dict[str, int] = {}
        #: Boundaries found in the code.
        self.found: set[str] = set()
        #: Boundaries looked for but missing from the code.
        self.absent: set[str] = set()
        #: Inner layer -> where its time is reported instead.
        self.fused: dict[str, str] = {}
        #: Code object of every boundary found -> its layer.
        self.codes: dict = {}
        self._stack: list[str] = []
        #: Seconds spent in calibration chunks so far: the wrappers read
        #: ``perf_counter() - excluded[0]``, a clock that stops in chunks.
        self._excluded = [0.0]
        self._state = [OUTSIDE, perf_counter()]
        #: Original callable -> its wrapper, to re-point references the
        #: simulator captured before the wrappers went in.
        self._replaced: dict = {}
        self._restore: list = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent (a calibration chunk) unattributed.

        Stopping the clock, rather than moving the current layer's start,
        stays exact when the chunk interrupts a wrapper between its clock
        read and its bookkeeping: the chunk's time can then only shift
        between the two layers, never into the total.
        """
        self._excluded[0] += seconds

    def _counter(self, name: str | None) -> str:
        # Counting into a throwaway key keeps the hot wrappers branch-free.
        name = name or "_uncounted"
        self.counts.setdefault(name, 0)
        return name

    def timed(self, layer: str, fn, count: str | None = None):
        """``fn`` wrapped so its calls are charged to ``layer``."""
        acc = self.self_s
        push = self._stack.append
        pop = self._stack.pop
        state = self._state
        counts = self.counts
        count = self._counter(count)
        clock = perf_counter
        excluded = self._excluded

        def timed_call(*args, **kwargs):
            counts[count] += 1
            now = clock() - excluded[0]
            outer = state[0]
            acc[outer] += now - state[1]
            push(outer)
            state[0] = layer
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock() - excluded[0]
                acc[layer] += now - state[1]
                state[0] = pop()
                state[1] = now

        return timed_call

    def timed_steps(self, layer: str, fn, count: str | None = None,
                    step_count: str | None = None):
        """Generator function ``fn`` wrapped so each step is charged to
        ``layer``; ``count`` counts generators made, ``step_count`` steps.

        The wrapper is a ``yield from``-able object with the timing
        written into ``send`` and ``__next__`` themselves: generator
        steps are the hottest boundary, so no helper call is added.
        """
        acc = self.self_s
        push = self._stack.append
        pop = self._stack.pop
        state = self._state
        counts = self.counts
        count = self._counter(count)
        step_count = self._counter(step_count)
        clock = perf_counter
        excluded = self._excluded
        throw = self.timed(layer, _call, step_count)

        class Steps:
            __slots__ = ("gen",)

            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                counts[step_count] += 1
                now = clock() - excluded[0]
                outer = state[0]
                acc[outer] += now - state[1]
                push(outer)
                state[0] = layer
                state[1] = now
                try:
                    return self.gen.send(None)
                finally:
                    now = clock() - excluded[0]
                    acc[layer] += now - state[1]
                    state[0] = pop()
                    state[1] = now

            def send(self, value):
                counts[step_count] += 1
                now = clock() - excluded[0]
                outer = state[0]
                acc[outer] += now - state[1]
                push(outer)
                state[0] = layer
                state[1] = now
                try:
                    return self.gen.send(value)
                finally:
                    now = clock() - excluded[0]
                    acc[layer] += now - state[1]
                    state[0] = pop()
                    state[1] = now

            def throw(self, *args):
                return throw(self.gen.throw, *args)

            def close(self):
                self.gen.close()

        def make(*args, **kwargs):
            counts[count] += 1
            return Steps(fn(*args, **kwargs))

        return make

    def _timed_inline(self, fn):
        """``access_inline`` wrapped, counting attempts and hits."""
        timed = self.timed("memory", fn, "memory.inline_attempts")
        counts = self.counts
        self._counter("memory.inline_hits")

        def access_inline(addr, is_write, value=None):
            result = timed(addr, is_write, value)
            if result is not None:
                counts["memory.inline_hits"] += 1
            return result

        return access_inline

    def _timed_lane(self, fn):
        """A batched lane wrapped, counting elements offered and committed."""
        timed = self.timed("memory", fn)
        counts = self.counts
        self._counter("memory.lane_offered")
        self._counter("memory.lane_committed")

        def lane(seq, start, out):
            end = timed(seq, start, out)
            counts["memory.lane_offered"] += len(seq) - start
            counts["memory.lane_committed"] += end - start
            return end

        return lane

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _boundary(self, layer, boundary, fn, make, put) -> None:
        """Record ``fn`` as a boundary of ``layer``; when wrapping, replace
        it by ``make(fn)``, stored with ``put(wrapper)``."""
        if fn is None:
            self.absent.add(boundary)
            return
        self.found.add(boundary)
        code = getattr(fn, "__code__", None)
        if code is not None:
            self.codes[code] = layer
        if self.wrapping:
            wrapper = make(fn)
            put(wrapper)
            self._replaced[fn] = wrapper

    def _wrap(self, obj, name, layer, boundary, make) -> None:
        self._boundary(layer, boundary, getattr(obj, name, None), make,
                       lambda wrapper: setattr(obj, name, wrapper))

    def _wrap_call(self, obj, name, layer, boundary, count=None):
        self._wrap(obj, name, layer, boundary,
                   lambda fn: self.timed(layer, fn, count))

    def _wrap_steps(self, obj, name, layer, boundary, count=None,
                    step_count=None):
        self._wrap(obj, name, layer, boundary,
                   lambda fn: self.timed_steps(layer, fn, count, step_count))

    def _wrap_cell(self, cell, layer, boundary, count=None) -> None:
        self._boundary(layer, boundary, cell.cell_contents,
                       lambda fn: self.timed(layer, fn, count),
                       lambda wrapper: setattr(cell, "cell_contents", wrapper))

    @staticmethod
    def _peel(fn):
        """A registered handler and its delivery guard (or None)."""
        guard = getattr(fn, "__guard__", None)
        return (fn.__wrapped__ if guard is not None else fn), guard

    def _handler(self, fn):
        """A registered handler, timed."""
        raw, guard = self._peel(fn)
        timed = self.timed("protocols", raw, "protocols.handler_calls")
        return guard.wrap(timed) if guard is not None else timed

    def wrap_handlers(self, machine) -> None:
        """Time every protocol handler, including ones registered later.

        Call before the compiled kernel installs (see the module doc).  A
        tracer that does not wrap leaves the registries alone here and
        records the handlers in :meth:`wrap_boundaries`.
        """
        if not self.wrapping:
            return
        for node in machine.nodes:
            registry = getattr(node, "registry", None)
            if registry is None:
                continue
            handlers = registry._handlers
            for name, spec in list(handlers.items()):
                handlers[name] = dataclasses.replace(
                    spec, fn=self._handler(spec.fn))
            register = registry.register
            registry.register = (
                lambda name, fn, instructions, _register=register:
                _register(name, self._handler(fn), instructions))
            self.found.add("HandlerRegistry handlers")

    def _wrap_kernel_closures(self, machine) -> None:
        """Time the compiled kernel's closures that are not attributes.

        The fused interconnect send schedules its delivery closures, and
        the fused Typhoon NP its per-node arrival closures (delivery
        fused with the NP receive path) and its handler-execution
        closure, straight onto the engine.  They are reached through the
        closures that are attributes, and replaced in the closure cells
        all their callers share.  Without the compiled kernel none of
        these exist and nothing happens here.

        Never read an instance's ``__dict__`` here: on CPython 3.11+ that
        turns the object's inline attribute values into a real dict and
        slows every later attribute access on it (by ~5% of a whole
        em3d-decoupled run, measured).  A plain method has no closure,
        so ``_free_var`` finds nothing in it.
        """
        send = getattr(machine.interconnect, "send", None)
        cell = _free_var(send, "deliver")
        if cell is not None:
            self._wrap_cell(cell, "network", "compiled deliver closure")
        cell = _free_var(send, "dispatch_get")
        dispatch = cell.cell_contents.__self__ if cell is not None else {}
        if dispatch:
            for node_id, arrive in list(dispatch.items()):
                self._boundary(
                    "typhoon", "compiled arrival closure", arrive,
                    lambda fn: self.timed("typhoon", fn),
                    lambda wrapper, key=node_id: dispatch.__setitem__(
                        key, wrapper))
            self.fused["network"] = (
                "compiled kernel: deliveries are timed in the typhoon "
                "arrival closures and sends inside tempest.send")
        for node in machine.nodes:
            pump = getattr(getattr(node, "np", None), "_pump", None)
            start = _free_var(pump, "start_message")
            cell = (_free_var(start.cell_contents, "execute")
                    if start is not None else None)
            if cell is not None:
                self._wrap_cell(cell, "typhoon", "compiled execute closure",
                                "typhoon.dispatches")

    def wrap_boundaries(self, machine) -> None:
        """Wrap every layer boundary of ``machine`` (see the module doc)."""
        from repro.sim.process import Process

        self._wrap_kernel_closures(machine)
        if not self.wrapping:
            for node in machine.nodes:
                registry = getattr(node, "registry", None)
                for spec in registry._handlers.values() if registry else ():
                    self.codes[self._peel(spec.fn)[0].__code__] = "protocols"
        backend = getattr(machine, "system_name", None)
        self._wrap_call(machine.engine, "run", "sim", "Engine.run")
        advance = Process._advance
        self._boundary(
            "apps", "Process._advance", advance,
            lambda fn: self.timed("apps", fn, "apps.resumes"),
            lambda wrapper: setattr(Process, "_advance", wrapper))
        if self.wrapping:
            self._restore.append((Process, "_advance", advance))

        for node in machine.nodes:
            self._wrap(node, "access_inline", "memory", "node.access_inline",
                       self._timed_inline)
            if backend != "dirnnb":
                for lane in ("run_read_prefix", "run_plan_prefix"):
                    self._wrap(node, lane, "memory", f"node.{lane}",
                               self._timed_lane)
            self._wrap_steps(node, "access", "memory", "node.access",
                             step_count="memory.miss_steps")
            if backend == "typhoon":
                self._wrap_dispatcher(node.np, "typhoon", "NetworkProcessor")
            elif backend == "decoupled":
                self._wrap_dispatcher(node.hp, "decoupled",
                                      "HandlerProcessor")
            elif backend == "blizzard":
                self._wrap_steps(node, "_service_one", "blizzard",
                                 "BlizzardNode._service_one",
                                 count="blizzard.services")
                for name in ("_handle_block_fault", "_poll", "_spin_until"):
                    self._wrap_steps(node, name, "blizzard",
                                     f"BlizzardNode.{name}")
                self._wrap_call(node, "_receive", "blizzard",
                                "BlizzardNode._receive")
            elif backend == "dirnnb":
                directory = node.directory
                for name in ("receive", "_pump", "_emit"):
                    self._wrap_call(directory, name, "protocols",
                                    f"DirectoryController.{name}")
                self._wrap_call(node, "_receive", "protocols",
                                "DirNNBNode._receive",
                                "protocols.handler_calls")
                for name in ("_send_ack", "_send_wb_data"):
                    self._wrap_call(node, name, "protocols",
                                    f"DirNNBNode.{name}")
            if getattr(node, "page_fault_handler", None) is not None:
                self._wrap_call(node, "page_fault_handler", "protocols",
                                "page_fault_handler",
                                "protocols.handler_calls")
            tempest = getattr(node, "tempest", None)
            if tempest is not None:
                self._wrap_call(tempest, "send", "tempest", "Tempest.send",
                                "tempest.sends")
                self._wrap_call(tempest, "bulk_transfer", "tempest",
                                "Tempest.bulk_transfer")

        interconnect = machine.interconnect
        self._wrap_call(interconnect, "send", "network", "Interconnect.send")
        self._wrap_call(interconnect, "_deliver", "network",
                        "Interconnect._deliver")
        # The interconnect captured each node's receive callable when the
        # node attached; point it at the wrapper.
        sinks = interconnect._sinks
        for node_id, sink in list(sinks.items()):
            wrapper = self._replaced.get(sink)
            if wrapper is not None:
                sinks[node_id] = wrapper

    def _wrap_dispatcher(self, dispatcher, layer, cls) -> None:
        for name in ("enqueue_message", "enqueue_fault", "_pump", "_finish"):
            self._wrap_call(dispatcher, name, layer, f"{cls}.{name}")
        self._wrap_call(dispatcher, "_execute", layer, f"{cls}._execute",
                        f"{layer}.dispatches")

    def restore(self) -> None:
        """Undo the class-level patches (instance ones die with the machine)."""
        for owner, name, original in self._restore:
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def total_s(self) -> float:
        """Self time summed over the layers (the time in ``Engine.run``)."""
        return sum(self.self_s[layer] for layer in LAYERS)
