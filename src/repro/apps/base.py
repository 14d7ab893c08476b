"""Application framework: SPMD kernels over the simulated shared segment.

An :class:`Application` owns its data layout and per-node worker; it runs
*unmodified* on any machine that provides ``nodes[i].access`` and a
barrier — which is exactly the paper's claim for programs linked against
the Stache library.

Workers are generators that drive their node's CPU through an
:class:`AppContext`::

    def worker(self, ctx):
        value = yield from ctx.read(addr)
        yield from ctx.write(addr, value + 1)
        yield from ctx.compute(flops=2)
        yield from ctx.barrier()

Compute work is charged in cycles derived from a flop cost (the paper
charges one cycle per instruction and notes this flatters the superscalar
primary CPU; ``FLOP_CYCLES`` is the knob).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.memory.allocator import SharedRegion
from repro.sim.process import SYNC

#: Cycles charged per floating-point operation in application kernels.
FLOP_CYCLES = 2

#: Cycles charged per unit of addressing/loop overhead.
OVERHEAD_CYCLES = 1


def _no_run(seq, start, out):
    """Fallback batched lane: commits nothing, so every element of the
    run decomposes to the scalar per-access path (node models without
    lanes, and machines with ``batch_lanes`` off)."""
    return start


def _value(value):
    """A generator that returns ``value`` without yielding: the
    ``yield from``-able of a completion that never suspends."""
    return value
    yield


class AppContext:
    """Per-node access handle given to application workers.

    ``read``/``write``/``compute`` are plain calls returning an iterable
    the worker drives with ``yield from``: the node's ``access``
    generator (the general path), or — when the access was serviced
    without touching the event queue — ``()`` for a write, a
    non-yielding value generator for a read, and ``(cycles,)`` for a
    compute charge the worker must yield.

    Hits and compute charges may commit inside the node's lookahead
    window, ahead of the engine's clock (see :mod:`repro.memory.lane`).
    Worker code between these calls then runs at the node's local clock,
    which is the time it would run at without lookahead; anything that
    touches another node's state must be a sync point (see
    :mod:`repro.sim.process`) — :meth:`barrier` and every yielded
    Future or delay are.
    """

    def __init__(self, machine, node_id: int):
        self.machine = machine
        self.node_id = node_id
        self.num_nodes = machine.num_nodes
        self._node = machine.nodes[node_id]
        self._engine = machine.engine
        self._counters = machine.stats._counters
        self._barrier_key = f"node{node_id}.cpu.barrier_cycles"
        # The batched inline-hit lane: every node model exposes
        # access_inline, which services TLB + cache hits (the dominant
        # reference class) in one plain call — no generator, no event
        # queue.  Consecutive hits therefore run back-to-back in the
        # worker's loop, entering the simulator only on a miss, fault,
        # or sync op.
        self._inline = self._node.access_inline
        self._access = self._node.access
        # The vectorised run lanes: a node-model method that commits the
        # longest all-hit prefix of a run in one step.  With lanes off
        # (machine.batch_lanes False — the scalar differential oracle)
        # or on nodes without lanes (DirNNB) the stub commits nothing
        # and runs decompose to the per-access path above.
        if getattr(machine, "batch_lanes", True):
            self._run_reads = getattr(self._node, "run_read_prefix", _no_run)
            self._run_writes = getattr(self._node, "run_write_prefix",
                                       _no_run)
            self._run_plan = getattr(self._node, "run_plan_prefix", _no_run)
            self._charge_inline = getattr(self._node, "charge_inline", None)
        else:
            # Scalar mode is the differential oracle *and* the honest
            # perf baseline: a run decomposes to exactly what an
            # unported worker executes — one read()/write() call per
            # element, each driven by ``yield from``, and one yielded
            # delay per compute charge.
            self._run_reads = _no_run
            self._run_writes = _no_run
            self._run_plan = _no_run
            self._charge_inline = None
            self.read_run = self._read_run_scalar
            self.write_run = self._write_run_scalar
            self.access_plan = self._plan_scalar
        if self._charge_inline is None:
            # No charge lane (DirNNB, or scalar mode): every compute
            # charge is yielded.
            self.compute = self._compute_yielded

    def read(self, addr: int):
        hit = self._inline(addr, False)
        if hit is not None:
            return _value(hit[0])
        return self._access(addr, False)

    def write(self, addr: int, value: Any):
        if self._inline(addr, True, value) is not None:
            return ()
        return self._access(addr, True, value)

    def read_run(self, addrs):
        """Read a run of addresses; ``yield from`` returns their values.

        Behaviourally identical to ``[ (yield from read(a)) for a in
        addrs ]`` — same cycles, same counters, same fault handling —
        but hit prefixes commit through the node's vectorised lane in
        one call instead of one call per element.  The first non-hit
        element falls back to the scalar path, then the run resumes.
        """
        out: list = []
        # Lane setup costs roughly two inline hits; a run shorter than
        # three elements cannot win even when it commits whole, so short
        # runs go straight to the per-element tail.
        index = self._run_reads(addrs, 0, out) if len(addrs) >= 3 else 0
        if index >= len(addrs):
            return _value(out)
        return self._read_run_tail(addrs, index, out)

    def _read_run_tail(self, addrs, index: int, out: list) -> Generator:
        total = len(addrs)
        run = self._run_reads
        inline = self._inline
        access = self._access
        engine = self._engine
        while index < total:
            # The stopping element takes exactly the scalar read() path:
            # inline attempt, then the general access generator.
            hit = inline(addrs[index], False)
            if hit is not None:
                # An inline hit means the lane's window was too small
                # and still is (nothing new can enter the event queue
                # while this thread runs, and the clock only closes on
                # the queue head) — retrying the lane would be a
                # guaranteed-rejected call per element.
                out.append(hit[0])
                index += 1
                continue
            if engine.ahead is not None:
                # The lookahead run is out of room: catch up, then retry
                # from the caught-up clock.
                yield SYNC
                continue
            out.append((yield from access(addrs[index], False)))
            index += 1
            if total - index >= 3:
                # The generator op suspended the thread: time jumped and
                # other nodes ran, so the window may have reopened.
                index = run(addrs, index, out)
        return out

    def _read_run_scalar(self, addrs) -> Generator:
        out: list = []
        read = self.read
        for addr in addrs:
            out.append((yield from read(addr)))
        return out

    def write_run(self, pairs):
        """Write a run of ``(addr, value)`` pairs; ``yield from`` returns
        one None per pair.

        Same batched-prefix / scalar-tail contract as :meth:`read_run`:
        behaviourally identical to ``write(addr, value)`` per pair.
        """
        out: list = []
        index = self._run_writes(pairs, 0, out) if len(pairs) >= 3 else 0
        if index >= len(pairs):
            return _value(out)
        return self._write_run_tail(pairs, index, out)

    def _write_run_tail(self, pairs, index: int, out: list) -> Generator:
        total = len(pairs)
        run = self._run_writes
        inline = self._inline
        access = self._access
        engine = self._engine
        while index < total:
            # Same reasoning as _read_run_tail.
            addr, value = pairs[index]
            if inline(addr, True, value) is not None:
                out.append(None)
                index += 1
                continue
            if engine.ahead is not None:
                yield SYNC
                continue
            out.append((yield from access(addr, True, value)))
            index += 1
            if total - index >= 3:
                index = run(pairs, index, out)
        return out

    def _write_run_scalar(self, pairs) -> Generator:
        out: list = []
        write = self.write
        for addr, value in pairs:
            out.append((yield from write(addr, value)))
        return out

    def access_plan(self, ops):
        """Run a mixed plan of ``(addr, is_write, value)`` ops.

        ``yield from`` returns one entry per op: the value for reads,
        None for writes.  Same batched-prefix / scalar-tail contract as
        :meth:`read_run`.
        """
        out: list = []
        index = self._run_plan(ops, 0, out) if len(ops) >= 3 else 0
        if index >= len(ops):
            return _value(out)
        return self._plan_tail(ops, index, out)

    def _plan_tail(self, ops, index: int, out: list) -> Generator:
        total = len(ops)
        run = self._run_plan
        inline = self._inline
        access = self._access
        engine = self._engine
        while index < total:
            addr, is_write, value = ops[index]
            hit = inline(addr, is_write, value)
            if hit is not None:
                # Same reasoning as _read_run_tail: the window the lane
                # just rejected cannot have grown, so don't retry it
                # until an op actually suspends the thread.
                out.append(hit[0])
                index += 1
                continue
            if engine.ahead is not None:
                yield SYNC
                continue
            out.append((yield from access(addr, is_write, value)))
            index += 1
            if total - index >= 3:
                index = run(ops, index, out)
        return out

    def _plan_scalar(self, ops) -> Generator:
        out: list = []
        read = self.read
        write = self.write
        for addr, is_write, value in ops:
            if is_write:
                out.append((yield from write(addr, value)))
            else:
                out.append((yield from read(addr)))
        return out

    def compute(self, flops: int = 0, overhead: int = 0):
        cycles = flops * FLOP_CYCLES + overhead * OVERHEAD_CYCLES
        if cycles and not self._charge_inline(cycles):
            return (cycles,)
        return ()

    def _compute_yielded(self, flops: int = 0, overhead: int = 0):
        cycles = flops * FLOP_CYCLES + overhead * OVERHEAD_CYCLES
        return (cycles,) if cycles else ()

    def barrier(self) -> Generator:
        engine = self._engine
        if engine.ahead is not None:
            # Arriving changes state every node shares: a sync point.
            yield SYNC
        start = engine.now
        yield from self.machine.barrier_wait(self.node_id)
        self._counters[self._barrier_key] += engine.now - start


class Application:
    """Base class: data layout in ``setup``, per-node work in ``worker``."""

    name = "application"

    def setup(self, machine, protocol=None) -> None:
        """Allocate and initialize shared data (untimed initialization).

        ``protocol`` is the installed user-level protocol on Typhoon
        machines (None on DirNNB); applications pass it to
        :meth:`alloc_shared` so home pages get created.
        """
        raise NotImplementedError

    def worker(self, ctx: AppContext) -> Generator:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared-memory helpers
    # ------------------------------------------------------------------
    @staticmethod
    def alloc_shared(machine, protocol, size: int, label: str,
                     home: int | None = None) -> SharedRegion:
        """Allocate a shared region and create its home pages."""
        region = machine.heap.allocate(size, home=home, label=label)
        if protocol is not None:
            protocol.setup_region(region)
        return region

    @staticmethod
    def poke(machine, addr: int, value: Any) -> None:
        """Initialize a shared location (untimed, pre-run only)."""
        if hasattr(machine, "shared_image"):
            machine.shared_image.write(addr, value)
        else:
            home = machine.heap.home_of(addr)
            machine.nodes[home].image.write(addr, value)

    @staticmethod
    def peek(machine, addr: int) -> Any:
        """Read a shared location's authoritative value (post-run checks).

        On Typhoon the authoritative copy is the exclusive owner's if one
        exists, else the home's.
        """
        if hasattr(machine, "shared_image"):
            return machine.shared_image.read(addr)
        home = machine.heap.home_of(addr)
        home_node = machine.nodes[home]
        entry = None
        page = home_node.tempest.page_entry(addr)
        if page is not None and isinstance(page.user_word, dict):
            entry = page.user_word.get(machine.layout.block_of(addr))
        if entry is not None and entry.owner is not None:
            return machine.nodes[entry.owner].image.read(addr)
        return home_node.image.read(addr)


class SharedArray:
    """A 1-D array of fixed-size records, striped across owners.

    Records never straddle blocks (``record_bytes`` must divide or be a
    multiple of the block size).  With ``striped=True`` each node owns a
    contiguous chunk of records homed on it (the owners-compute layout
    every application here uses); otherwise pages are homed round-robin.
    """

    def __init__(self, machine, protocol, count: int, record_bytes: int,
                 label: str, striped: bool = True):
        if record_bytes & (record_bytes - 1):
            raise ValueError("record size must be a power of two")
        self.count = count
        self.record_bytes = record_bytes
        self.label = label
        self.machine = machine
        nodes = machine.num_nodes
        if striped:
            self.per_owner = -(-count // nodes)  # ceiling
            chunk_bytes = self.per_owner * record_bytes
            self.regions = []
            for node in range(nodes):
                region = machine.heap.allocate(
                    max(chunk_bytes, 1), home=node, label=f"{label}[{node}]"
                )
                if protocol is not None:
                    protocol.setup_region(region)
                self.regions.append(region)
        else:
            self.per_owner = None
            region = machine.heap.allocate(
                count * record_bytes, label=label
            )
            if protocol is not None:
                protocol.setup_region(region)
            self.regions = [region]
        self.striped = striped

    def addr(self, index: int, offset: int = 0) -> int:
        if not 0 <= index < self.count:
            raise IndexError(f"{self.label}[{index}] out of range")
        if offset >= self.record_bytes:
            raise IndexError(f"offset {offset} exceeds record size")
        if self.striped:
            owner, slot = divmod(index, self.per_owner)
            return self.regions[owner].base + slot * self.record_bytes + offset
        return self.regions[0].base + index * self.record_bytes + offset

    def owner_of(self, index: int) -> int:
        """The node that owns (and should compute) record ``index``."""
        if self.striped:
            return min(index // self.per_owner, self.machine.num_nodes - 1)
        return self.machine.heap.home_of(self.addr(index))

    def owned_range(self, node: int) -> range:
        """Record indices owned by ``node``."""
        if not self.striped:
            raise ValueError("owned_range needs a striped array")
        start = node * self.per_owner
        return range(min(start, self.count), min(start + self.per_owner,
                                                 self.count))


def run_app(machine, app: Application, protocol=None) -> float:
    """Set up and run an application; returns the execution time in cycles."""
    app.setup(machine, protocol)
    machine.run_workers(lambda node_id: app.worker(AppContext(machine, node_id)))
    return machine.execution_time
