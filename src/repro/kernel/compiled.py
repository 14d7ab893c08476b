"""The compiled dispatch kernel: table-driven fast paths per backend.

:mod:`repro.protocols.compiled` lowers the installed protocol into
per-node :class:`~repro.protocols.compiled.CompiledProtocolTable` objects
whose dispatch rows hold the *raw* handler function, the delivery guard's
fused duplicate check, and the invocation cost with
cycles-per-instruction already folded in.  This module is the other half:
backend-specific dispatch loops that execute those rows with the
interpreted layers' call overhead flattened away.

Installation is by **instance-attribute shadowing**: the fused closures
are assigned onto the live node/interconnect objects
(``np.enqueue_message = fast_enqueue``), so the interpreted methods stay
intact underneath as the differential-testing oracle, and deoptimisation
is ``obj.__dict__.pop(name)``.  The fused paths:

* **Typhoon NP dispatch** — ``enqueue_message``/``enqueue_fault``/pump/
  execute collapse into closures that pre-resolve the dispatch row, fold
  the guard's duplicate check inline, and push anonymous engine entries
  directly (no ``_Event`` allocation, no ``_begin``/``_finish`` frames).
  When a handler finishes with more work queued (tail position), the next
  handler's charge window is checked exactly like ``Engine.try_advance``:
  if no pending event can fire inside it, the clock advances inline and
  the handler runs with **no heap round-trip at all**.
* **Typhoon send** — ``Tempest.send`` is overridden per node with a
  closure fusing message construction, the send counter, the finite
  send-queue credit check, and the interconnect injection.
* **Interconnect send/deliver** — a reliable, contention-free network's
  send is a straight-line closure: the per-channel FIFO floor provably
  never binds (fixed per-pair latency + a monotone clock), so the
  fault-plan branch, the floor read, and the action dispatch disappear.
  Delivery is scheduled as a *per-destination* closure that fuses
  ``_deliver`` with the destination NP's receive path.
* **Blizzard CPU servicing** — ``_service_one``/``_handle_block_fault``
  become row-driven generators (one registry lookup and one guard frame
  fewer per handler).

**Observable-order parity is the invariant.**  Every fused path performs
the same engine insertions, in the same relative order, at the same
times and with the same zero-delay/heap split as its interpreted twin —
and the inline-advance path only fires when the skipped heap entry would
provably have been the very next event.  The global ``(time, seq)``
event order, every statistic, every RNG draw, and the final memory image
are therefore identical; the differential harness
(:mod:`repro.harness.differential`) asserts exactly that.

Specialisation is re-decided by :meth:`CompiledKernel.refresh` (hooked
from ``enable_conformance`` / ``install_fault_plan``): conformance fuses
the monitor's ``after_handler`` into the dispatch closures; a live fault
plan deopts the NP and interconnect fast paths back to the interpreted
methods (stall windows, NACK/retransmit and drop/dup/reorder handling
stay in exactly one place).
"""

from __future__ import annotations

from heapq import heappush

from repro.network.message import Message, VirtualNetwork
from repro.protocols.compiled import (
    CompiledProtocolTable,
    compilable_spec,
    compile_protocol,
)
from repro.sim.engine import SimulationError
from repro.typhoon.np import DispatchError

__all__ = ["CompiledKernel"]

#: Bound on back-to-back inline handler dispatches (each consumes a few
#: Python frames; past this the kernel falls back to a heap entry, which
#: is observably identical — see ``start_message_tail``).
_MAX_INLINE_DEPTH = 128


class CompiledKernel:
    """Compiled tables plus the fused dispatch closures for one machine."""

    name = "compiled"

    def __init__(self, machine, spec, cycles_per_instruction: int):
        self.machine = machine
        self.spec = spec
        #: node_id -> CompiledProtocolTable (registries are per node).
        self.tables: dict[int, CompiledProtocolTable] = {
            node.node_id: compile_protocol(
                spec, node.registry, cycles_per_instruction
            )
            for node in machine.nodes
        }
        #: What refresh() last decided, for introspection and tests.
        self.np_fast = False
        self.interconnect_fast = False

    # ------------------------------------------------------------------
    @classmethod
    def try_install(cls, machine):
        """Compile ``machine``'s protocol and install the fast paths.

        Returns ``(kernel, None)`` on success or ``(None, reason)`` when
        the machine must stay interpreted — a *declared* incompatibility
        (registry compilability, hardware protocol), never a silent one.
        """
        backend = getattr(machine, "system_name", None)
        if backend == "typhoon":
            cpi = machine.config.typhoon.cycles_per_instruction
        elif backend == "blizzard":
            cpi = machine.config.blizzard.cycles_per_instruction
        elif backend == "decoupled":
            return None, (
                "backend 'decoupled' runs handlers on a dedicated "
                "handler processor the compiled kernel does not yet "
                "specialise; running interpreted"
            )
        else:
            return None, (
                f"backend {backend!r} runs its protocol in hardware; "
                "there is no software dispatch loop to compile"
            )
        protocol = getattr(machine, "protocol", None)
        name = getattr(protocol, "name", None)
        spec = compilable_spec(name)
        if spec is None:
            return None, (
                f"protocol {name!r} is not marked compilable in the "
                "registry (no transition tables to lower)"
            )
        kernel = cls(machine, spec, cpi)
        kernel.refresh()
        return kernel, None

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """(Re-)specialise the fast paths for the machine's current mode.

        Idempotent; called at install and again whenever conformance or
        fault injection changes the required semantics.  Conformance is
        *fused* (the monitor's ``after_handler`` is baked into the
        dispatch closures); a live fault plan *deopts* the NP and
        interconnect back to the interpreted methods, which own the
        stall/NACK/drop machinery.
        """
        machine = self.machine
        monitor = machine.conformance
        faulty = machine.fault_plan is not None
        ic = machine.interconnect
        self.np_fast = not faulty
        #: Per-destination fused delivery closures; the fast interconnect
        #: send schedules these directly (dict is filled by the node
        #: installs below, read through the closure at delivery time).
        dispatch: dict = {}
        self.interconnect_fast = (
            ic._fault_plan is None and not ic.model_contention
        )
        if self.interconnect_fast:
            ic.send = _make_fast_interconnect_send(ic, dispatch)
        else:
            ic.__dict__.pop("send", None)
        if machine.system_name == "typhoon":
            for node in machine.nodes:
                if self.np_fast:
                    _install_typhoon_node(
                        node, self.tables[node.node_id], monitor,
                        dispatch, self.interconnect_fast,
                    )
                else:
                    _deopt_typhoon_node(node)
        else:
            for node in machine.nodes:
                _install_blizzard_node(
                    node, self.tables[node.node_id], monitor
                )

    def uninstall(self) -> None:
        """Remove every fused closure; the machine is interpreted again."""
        machine = self.machine
        machine.interconnect.__dict__.pop("send", None)
        self.interconnect_fast = False
        self.np_fast = False
        for node in machine.nodes:
            if machine.system_name == "typhoon":
                _deopt_typhoon_node(node)
            else:
                _deopt_blizzard_node(node)

    def describe(self) -> dict:
        """Introspection row for the CLI and the differential harness."""
        return {
            "kernel": self.name,
            "protocol_spec": self.spec.name,
            "nodes": len(self.tables),
            "handlers": len(self.tables[0].rows) if self.tables else 0,
            "np_fast": self.np_fast,
            "interconnect_fast": self.interconnect_fast,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(spec={self.spec.name!r}, "
            f"nodes={len(self.tables)}, np_fast={self.np_fast}, "
            f"ic_fast={self.interconnect_fast})"
        )


# ----------------------------------------------------------------------
# Interconnect: reliable, contention-free send/deliver
# ----------------------------------------------------------------------
def _make_fast_interconnect_send(ic, dispatch):
    """Straight-line send for a reliable, contention-free network.

    Parity argument for dropping the FIFO floor *read*: with no
    contention model the floor stored for channel ``(src, dst, vnet)`` is
    always the previous packet's arrival, ``now' + latency(src, dst)``
    with ``now' <= now`` and a fixed per-pair latency — so the new
    arrival is never below it.  The floor is still *written* so a
    mid-run deopt (fault plan installed later) resumes with correct
    channel state.

    ``dispatch`` maps node ids to fused delivery closures (filled by the
    backend installs); destinations without one get the generic deliver,
    which is ``Interconnect._deliver`` minus the transport branches.
    """
    engine = ic.engine
    stats = ic.stats
    counters = ic._counters
    observers = ic.observers  # stable list object, mutated in place
    sinks = ic._sinks
    latency = ic._latency
    channel_clear = ic._channel_clear
    max_payload = ic._max_payload
    fifo = engine._fifo
    queue = engine._queue
    dispatch_get = dispatch.get

    def deliver(message):
        if observers:
            for observer in observers:
                observer("deliver", message)
        sinks[message.dst](message)
        callback = message.on_delivered
        if callback is not None:
            message.on_delivered = None
            callback(message)

    def fast_send(message):
        dst = message.dst
        arrive = dispatch_get(dst)
        if arrive is None:
            if dst not in sinks:
                raise SimulationError(f"message to unattached node {dst}")
            arrive = deliver
        if message.size_words > max_payload:
            message.validated(max_payload)  # raises PacketTooLarge
        now = engine.now
        message.send_time = now
        counters["network.packets"] += 1
        counters["network.words"] += message.size_words
        if observers:
            for observer in observers:
                observer("send", message)
        src = message.src
        seq = engine._seq
        engine._seq = seq + 1
        engine._live += 1
        if src == dst:
            counters["network.local_packets"] += 1
            heappush(queue, (now + 1, seq, None, arrive, (message,)))
            return
        arrival = now + latency(src, dst)
        channel_clear[(src, dst, message.vnet)] = arrival
        dist = ic._latency_dist
        if dist is None:
            dist = ic._latency_dist = stats.distribution("network.latency")
        dist.add(arrival - now)
        if arrival > now:
            heappush(queue, (arrival, seq, None, arrive, (message,)))
        else:
            fifo.append((seq, arrive, (message,)))

    return fast_send


# ----------------------------------------------------------------------
# Typhoon: fused NP dispatch
# ----------------------------------------------------------------------
_TYPHOON_OVERRIDES = ("enqueue_message", "enqueue_fault", "_pump")


def _install_typhoon_node(node, table, monitor, dispatch, ic_fast) -> None:
    """Install the fused NP dispatch loop on one Typhoon node.

    Valid only with no fault plan (no stall windows, no receive/BAF
    bounds, no NACKs).  The fused loop folds ``_start_message`` /
    ``_start_fault`` / ``_begin`` / ``_execute`` / ``_finish`` into a
    handful of closures, pushes anonymous engine entries directly, and —
    in tail position — elides the heap round-trip entirely when the
    charge window is provably event-free.
    """
    np = node.np
    engine = np.engine
    tempest = node.tempest
    counters = np._counters
    rows = table.rows
    rows_get = rows.get
    resolve_row = table.row  # lazy: handlers may register after install
    np_tlb_access = np.np_tlb.access
    np_tlb_miss = np.costs.np_tlb_miss
    baf_dispatch_cycles = np.costs.baf_dispatch_cycles
    rtlb_probe = np.rtlb.probe
    page_shift = np._page_shift
    received_key = np._received_key
    handler_cycles_key = np._handler_cycles_key
    np_tlb_misses_key = np._np_tlb_misses_key
    block_faults_key = np._block_faults_key
    sent_key = node._messages_sent_key
    response_queue = np._response_queue
    request_queue = np._request_queue
    baf_buffer = np._baf_buffer
    pt_lookup = node.page_table.lookup
    fault_dispatch = np._fault_dispatch
    fault_observers = node.machine.fault_observers  # stable list object
    in_flight = np._in_flight
    overflow = np._overflow
    on_delivered = np._on_delivered
    np_stats = np.stats
    overflow_key = f"{np._prefix}.sends_overflowed"
    overflow_peak_key = f"{np._prefix}.overflow_peak"
    interconnect = node.machine.interconnect
    ic_observers = interconnect.observers  # stable list object
    node_id = node.node_id
    fifo = engine._fifo
    queue = engine._queue
    RESPONSE = VirtualNetwork.RESPONSE
    REQUEST = VirtualNetwork.REQUEST
    after_handler = monitor.after_handler if monitor is not None else None
    # Inline-dispatch recursion depth (a mutable cell shared by the tail
    # closures): bounded so a long drain of queued work cannot pile up
    # Python frames — the fallback heap entry is observably identical.
    depth = [0]

    def _resolve_fault(fault):
        # _start_fault's dispatch-table side.  Fault handlers may be
        # guard-wrapped, but an AccessFault has no transaction id, so
        # the guard would pass it straight through — the fused check is
        # skipped entirely (seen=None at the call sites).
        entry = pt_lookup(fault.addr)
        if entry is None:
            raise DispatchError(
                f"BAF for unmapped page {fault.addr:#x} on node {node_id}"
            )
        handler_name = fault_dispatch.get((entry.mode, fault.is_write))
        if handler_name is None:
            raise DispatchError(
                f"no fault handler for mode={entry.mode} "
                f"is_write={fault.is_write} on node {node_id}"
            )
        row = rows.get(handler_name)
        if row is None:
            row = resolve_row(handler_name)
        return row, baf_dispatch_cycles + row.cost + rtlb_probe(fault.addr)

    def start_message(message):
        # Non-tail entry (delivery path): the caller still has work to
        # do at the current time, so the charge always goes to the heap
        # (or the zero-delay lane) exactly like the interpreted _begin.
        # The row lookup + NP TLB probe (_start_message's cost side) is
        # inlined here and at every other dispatch site.
        np._busy = True
        row = rows_get(message.handler)
        if row is None:
            row = resolve_row(message.handler)  # raises on unknown names
        cost = row.cost
        addr = message.payload.get("addr")
        if addr is not None and not np_tlb_access(addr >> page_shift):
            cost += np_tlb_miss
            counters[np_tlb_misses_key] += 1
        counters[handler_cycles_key] += cost
        seq = engine._seq
        engine._seq = seq + 1
        engine._live += 1
        if cost:
            heappush(
                queue,
                (engine.now + cost, seq, None, execute,
                 (row.fn, row.seen, message)),
            )
        else:
            fifo.append((seq, execute, (row.fn, row.seen, message)))

    def start_fault(fault):
        np._busy = True
        row, cost = _resolve_fault(fault)
        counters[handler_cycles_key] += cost
        seq = engine._seq
        engine._seq = seq + 1
        engine._live += 1
        if cost:
            heappush(
                queue,
                (engine.now + cost, seq, None, execute,
                 (row.fn, None, fault)),
            )
        else:
            fifo.append((seq, execute, (row.fn, None, fault)))

    def start_message_tail(message):
        # Tail entry (a handler just finished and this dispatch is the
        # last thing happening at the current time): if no pending event
        # can fire inside the charge window — the Engine.try_advance
        # condition — the heap entry we would push would provably be the
        # next event fired, so advance the clock and run it now.
        np._busy = True
        row = rows_get(message.handler)
        if row is None:
            row = resolve_row(message.handler)
        cost = row.cost
        addr = message.payload.get("addr")
        if addr is not None and not np_tlb_access(addr >> page_shift):
            cost += np_tlb_miss
            counters[np_tlb_misses_key] += 1
        counters[handler_cycles_key] += cost
        target = engine.now + cost
        d = depth[0]
        if (
            d < _MAX_INLINE_DEPTH
            and not fifo
            and (not queue or queue[0][0] > target)
            and ((until := engine._until) is None or target <= until)
        ):
            depth[0] = d + 1
            engine.now = target
            execute(row.fn, row.seen, message)
            depth[0] = d
            return
        seq = engine._seq
        engine._seq = seq + 1
        engine._live += 1
        if cost:
            heappush(
                queue,
                (target, seq, None, execute, (row.fn, row.seen, message)),
            )
        else:
            fifo.append((seq, execute, (row.fn, row.seen, message)))

    def start_fault_tail(fault):
        np._busy = True
        row, cost = _resolve_fault(fault)
        counters[handler_cycles_key] += cost
        target = engine.now + cost
        d = depth[0]
        if (
            d < _MAX_INLINE_DEPTH
            and not fifo
            and (not queue or queue[0][0] > target)
            and ((until := engine._until) is None or target <= until)
        ):
            depth[0] = d + 1
            engine.now = target
            execute(row.fn, None, fault)
            depth[0] = d
            return
        seq = engine._seq
        engine._seq = seq + 1
        engine._live += 1
        if cost:
            heappush(
                queue, (target, seq, None, execute, (row.fn, None, fault))
            )
        else:
            fifo.append((seq, execute, (row.fn, None, fault)))

    def execute(fn, seen, argument):
        # _execute with the DeliveryGuard wrapper's body fused inline:
        # first delivery of a transaction id runs the raw handler, later
        # deliveries are dropped (and counted by the guard itself).
        np._extra_charge = 0
        if seen is None:
            fn(tempest, argument)
        else:
            xid = argument.xid
            if xid is None or not seen(argument.src, xid):
                fn(tempest, argument)
        if after_handler is not None:
            after_handler(node_id, argument)
        extra = np._extra_charge
        if extra:
            np._extra_charge = 0
            counters[handler_cycles_key] += extra
            target = engine.now + extra
            if (
                not fifo
                and (not queue or queue[0][0] > target)
                and ((until := engine._until) is None or target <= until)
            ):
                engine.now = target
            else:
                seq = engine._seq
                engine._seq = seq + 1
                engine._live += 1
                heappush(queue, (target, seq, None, finish, ()))
                return
        # _finish + _pump, inlined: dispatch the next piece of work
        # directly — response network first, then captured faults, then
        # requests (the Section 5.1 priority) — leaving _busy set across
        # back-to-back handlers (externally indistinguishable from the
        # interpreted clear-then-set).
        if response_queue:
            start_message_tail(response_queue.popleft())
        elif baf_buffer:
            start_fault_tail(baf_buffer.popleft())
        elif request_queue:
            start_message_tail(request_queue.popleft())
        else:
            np._busy = False

    def finish():
        # Continuation for the rare heap-scheduled extra charge above.
        if response_queue:
            start_message_tail(response_queue.popleft())
        elif baf_buffer:
            start_fault_tail(baf_buffer.popleft())
        elif request_queue:
            start_message_tail(request_queue.popleft())
        else:
            np._busy = False

    def pump():
        if np._busy:
            return
        if response_queue:
            start_message(response_queue.popleft())
        elif baf_buffer:
            start_fault(baf_buffer.popleft())
        elif request_queue:
            start_message(request_queue.popleft())

    def enqueue_message(message):
        # Receive-queue arrival; no bounded-queue/NACK branch (faults
        # deopt the whole node).
        if message.vnet is RESPONSE:
            response_queue.append(message)
        else:
            request_queue.append(message)
        counters[received_key] += 1
        if not np._busy:
            if response_queue:
                start_message(response_queue.popleft())
            elif baf_buffer:
                start_fault(baf_buffer.popleft())
            elif request_queue:
                start_message(request_queue.popleft())

    def enqueue_fault(fault):
        # BAF arrival; no capacity bound (faults deopt the whole node).
        counters[block_faults_key] += 1
        if fault_observers:
            for observer in fault_observers:
                observer(fault)
        baf_buffer.append(fault)
        if not np._busy:
            if response_queue:
                start_message(response_queue.popleft())
            elif baf_buffer:
                start_fault(baf_buffer.popleft())
            elif request_queue:
                start_message(request_queue.popleft())

    def arrive(message):
        # Interconnect._deliver fused with enqueue_message, scheduled
        # directly by the fast interconnect send for this destination.
        # Order matches the interpreted path exactly: deliver observers,
        # sink (enqueue + possible dispatch), then the fire-once
        # send-queue credit.
        if ic_observers:
            for observer in ic_observers:
                observer("deliver", message)
        if message.vnet is RESPONSE:
            response_queue.append(message)
        else:
            request_queue.append(message)
        counters[received_key] += 1
        if not np._busy:
            # Inlined start_message for the dominant case (the arriving
            # message dispatches immediately); the BAF branch cannot
            # really occur here (an idle NP never leaves a captured
            # fault queued) but is kept for exactness.
            if response_queue:
                work = response_queue.popleft()
            elif baf_buffer:
                work = None
                start_fault(baf_buffer.popleft())
            else:
                work = request_queue.popleft()
            if work is not None:
                np._busy = True
                row = rows_get(work.handler)
                if row is None:
                    row = resolve_row(work.handler)
                cost = row.cost
                addr = work.payload.get("addr")
                if addr is not None and not np_tlb_access(
                        addr >> page_shift):
                    cost += np_tlb_miss
                    counters[np_tlb_misses_key] += 1
                counters[handler_cycles_key] += cost
                seq = engine._seq
                engine._seq = seq + 1
                engine._live += 1
                if cost:
                    heappush(
                        queue,
                        (engine.now + cost, seq, None, execute,
                         (row.fn, row.seen, work)),
                    )
                else:
                    fifo.append((seq, execute, (row.fn, row.seen, work)))
        callback = message.on_delivered
        if callback is not None:
            message.on_delivered = None
            callback(message)

    def send_message(message):
        # TyphoonNode.send_message + NetworkProcessor.send fused; the
        # interconnect send resolves dynamically so its own fast path
        # (and any later deopt) composes.
        counters[sent_key] += 1
        vnet = message.vnet
        if in_flight[vnet] >= np._send_depth:
            overflow.append(message)
            np_stats.incr(overflow_key)
            np_stats.set_max(overflow_peak_key, len(overflow))
            return
        in_flight[vnet] += 1
        message.on_delivered = on_delivered
        interconnect.send(message)

    if ic_fast:
        # The whole user-level send path in ONE frame: Tempest.send +
        # send_message + the reliable-network interconnect send, with
        # this node's per-destination latencies folded in as constants
        # (the topology function is pure and the machine is fixed).
        lats = tuple(
            0 if dst == node_id else interconnect._latency(node_id, dst)
            for dst in range(node.machine.config.nodes)
        )
        channel_clear = interconnect._channel_clear
        max_payload = interconnect._max_payload
        ic_stats = interconnect.stats
        dispatch_get = dispatch.get

        def tempest_send(dst, handler, vnet=REQUEST, size_words=3,
                         **payload):
            message = Message(
                src=node_id, dst=dst, handler=handler, vnet=vnet,
                size_words=size_words, payload=payload,
            )
            counters[sent_key] += 1
            if in_flight[vnet] >= np._send_depth:
                overflow.append(message)
                np_stats.incr(overflow_key)
                np_stats.set_max(overflow_peak_key, len(overflow))
                return
            in_flight[vnet] += 1
            message.on_delivered = on_delivered
            to = dispatch_get(dst)
            if to is None:
                # Destination without a fused delivery closure (deopt
                # race, unattached-node error path): generic send.
                interconnect.send(message)
                return
            if size_words > max_payload:
                message.validated(max_payload)  # raises PacketTooLarge
            now = engine.now
            message.send_time = now
            counters["network.packets"] += 1
            counters["network.words"] += size_words
            if ic_observers:
                for observer in ic_observers:
                    observer("send", message)
            seq = engine._seq
            engine._seq = seq + 1
            engine._live += 1
            if dst == node_id:
                counters["network.local_packets"] += 1
                heappush(queue, (now + 1, seq, None, to, (message,)))
                return
            arrival = now + lats[dst]
            channel_clear[(node_id, dst, vnet)] = arrival
            dist = interconnect._latency_dist
            if dist is None:
                dist = interconnect._latency_dist = ic_stats.distribution(
                    "network.latency")
            dist.add(arrival - now)
            if arrival > now:
                heappush(queue, (arrival, seq, None, to, (message,)))
            else:
                fifo.append((seq, to, (message,)))
    else:
        def tempest_send(dst, handler, vnet=REQUEST, size_words=3,
                         **payload):
            # Tempest.send + send_message in one frame; the interconnect
            # resolves dynamically (contention model or fault plan owns
            # the rest of the path).
            message = Message(
                src=node_id, dst=dst, handler=handler, vnet=vnet,
                size_words=size_words, payload=payload,
            )
            counters[sent_key] += 1
            if in_flight[vnet] >= np._send_depth:
                overflow.append(message)
                np_stats.incr(overflow_key)
                np_stats.set_max(overflow_peak_key, len(overflow))
                return
            in_flight[vnet] += 1
            message.on_delivered = on_delivered
            interconnect.send(message)

    np.enqueue_message = enqueue_message
    np.enqueue_fault = enqueue_fault
    np._pump = pump
    # These three captured bound methods at machine construction, so
    # shadowing the NP methods alone would not be enough: re-point them.
    interconnect._sinks[node_id] = enqueue_message
    tempest._send_message = send_message
    tempest.send = tempest_send
    dispatch[node_id] = arrive


def _deopt_typhoon_node(node) -> None:
    """Back to the interpreted NP loop (idempotent)."""
    np = node.np
    for name in _TYPHOON_OVERRIDES:
        np.__dict__.pop(name, None)
    node.machine.interconnect._sinks[node.node_id] = np.enqueue_message
    node.tempest._send_message = node.send_message
    node.tempest.__dict__.pop("send", None)


# ----------------------------------------------------------------------
# Blizzard: row-driven CPU servicing
# ----------------------------------------------------------------------
_BLIZZARD_OVERRIDES = ("_service_one", "_handle_block_fault")


def _install_blizzard_node(node, table, monitor) -> None:
    """Install row-driven handler servicing on one Blizzard node.

    Blizzard has no NP — handlers run on the CPU thread between yields —
    so the fused generators keep the exact same yield structure as the
    interpreted ones and stay valid even under fault injection (the
    inbox bound lives in ``_receive``, which is untouched; duplicate
    suppression is the fused guard check).
    """
    np = node.np
    tempest = node.tempest
    counters = node._counters
    rows = table.rows
    resolve_row = table.row
    pick_next = node._pick_next_message
    dispatch_cycles = node.costs.software_dispatch_cycles
    handlers_run_key = node._handlers_run_key
    take_charge = np.take_charge
    pt_lookup = node.page_table.lookup
    fault_handler_for = np.fault_handler_for
    suspend = node.thread.suspend
    spin_until = node._spin_until
    node_id = node.node_id
    after_handler = monitor.after_handler if monitor is not None else None

    def service_one():
        message = pick_next()
        row = rows.get(message.handler)
        if row is None:
            row = resolve_row(message.handler)
        yield dispatch_cycles + row.cost
        counters[handlers_run_key] += 1
        seen = row.seen
        if seen is None:
            row.fn(tempest, message)
        else:
            xid = message.xid
            if xid is None or not seen(message.src, xid):
                row.fn(tempest, message)
        if after_handler is not None:
            after_handler(node_id, message)
        extra = take_charge()
        if extra:
            yield extra

    def handle_block_fault(fault):
        entry = pt_lookup(fault.addr)
        handler_name = fault_handler_for(entry.mode, fault.is_write)
        row = rows.get(handler_name)
        if row is None:
            row = resolve_row(handler_name)
        suspension = suspend()
        yield dispatch_cycles + row.cost
        # Guarded or not, an AccessFault has no transaction id: call the
        # raw handler directly (same as the guard passing it through).
        row.fn(tempest, fault)
        if after_handler is not None:
            after_handler(node_id, fault)
        extra = take_charge()
        if extra:
            yield extra
        if not suspension.done:
            yield from spin_until(suspension)

    node._service_one = service_one
    node._handle_block_fault = handle_block_fault


def _deopt_blizzard_node(node) -> None:
    """Back to the interpreted servicing loop (idempotent)."""
    for name in _BLIZZARD_OVERRIDES:
        node.__dict__.pop(name, None)
