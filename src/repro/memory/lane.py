"""The CPU's hit path: the scalar inline hit, the batched lanes, and
inline compute charges.

A node's ``access_inline(addr, is_write, value)`` commits one reference
that hits — TLB hit, mapped page, cache hit, no event inside the hit
window — without touching the event queue, and returns ``(result,)``;
it returns None, having changed nothing, when the ``access`` generator
must run instead.  The engine window is checked *first*: in lock-step
phases another node often has an event inside the hit window, and that
rejection must cost a few loads, not a TLB/cache probe that ``access``
then repeats.  ``charge_inline(cycles)`` commits a compute charge the
same way, or returns False when the worker must yield it.

``AppContext.read_run``/``write_run``/``access_plan`` hand whole runs of
references to a node's three lanes: ``run_read_prefix`` (addresses to
read), ``run_write_prefix`` (``(addr, value)`` pairs to write) and
``run_plan_prefix`` (mixed ``(addr, is_write, value)`` plans).  Each
commits the longest prefix of the run that would hit, in one step, with
effects identical to that many scalar inline hits: the same clock,
counters, data image, ``written_blocks`` and history.  They return the
index of the first element *not* committed; the caller services it
through the scalar path and retries from there.

Every Tempest backend runs these callables.  :func:`build_access_lanes`
binds them to a node once, from the delays the backend's ``access``
generator yields for a hit, so one triple decides what a hit costs for a
single reference and for a run of them:

* ``private_yields`` — a reference to a private page (the bare cache
  hit);
* ``shared_read_yields`` / ``shared_write_yields`` — a reference to a
  shared page (Typhoon: the bare hit; Blizzard: poll, inserted check,
  hit; decoupled: inserted check, hit, no poll), zeros dropped;
* ``inbox`` — Blizzard's message inbox: queued messages must be polled
  before a reference, so a non-empty inbox refuses the inline hit and
  the batch.  Backends without one pass ``()``, which costs a truth
  test.

The lanes work per cache block rather than per word, and ask the same
state ``access_inline`` asks.  Once per page segment they test the CPU
TLB (and, on a shared page, the page table); once per block they look
the line up in its cache set — a read needs it resident, a write
resident and not SHARED — fetch the block's word dict from the
:class:`~repro.memory.data.MemoryImage`, and add a written block to
``written_blocks`` once.
The window's bound is read once per call.  Every element of a page
segment costs the same, so the read and write lanes turn the bound into
an index limit once per segment and step no clock per element; the
limit is exactly the count per-element stepping commits (a floored
estimate corrected by exact comparisons, and stepping itself on a float
clock, which ``run(until=<float>)`` leaves).  The plan lane, whose
elements mix read and write costs, compares each element's completion
time against the bound.

**Lookahead.**  Where the engine's window (:attr:`Engine.edge
<repro.sim.engine.Engine.edge>`) is too small for a batched run, a
lane uses the node's own lookahead window instead (``horizon(node_id)``,
cut at the handler processor's ``due``): a prefix that completes past
the engine's window opens a lookahead run (:meth:`Engine.run_ahead
<repro.sim.engine.Engine.run_ahead>`).  While the run is open, every
commit — lane, scalar hit or compute charge — is checked against its
bound and appends the delays the ``access`` generator would have
yielded to ``engine.skipped``, for the worker's process to replay
(:mod:`repro.sim.process`); the run's bound is then the engine's
``edge``.  Only the lanes open runs: a run opened by a lone scalar hit
is usually cut short by the next miss, and ending a run costs a process
round trip of its own.  Why this is exact: a hit touches only this
node's TLB, cache, tags, memory image, ``written_blocks`` and its own
counters, and nothing owned by another node reads those before the
window closes (see docs/performance.md, "Node locality").  Lookahead is
off outside ``engine.run``, with a non-empty inbox, under a fault plan,
a conformance monitor or history recording, and with ``batch_lanes``
off: scalar mode is the oracle.

A lane call deopts — returns ``start`` with no side effects — under a
live fault plan or conformance monitor, or with a non-empty inbox: the
scalar path is the oracle those modes observe.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.memory.address import SHARED_BASE
from repro.memory.cache import LineState

#: Stand-in word dict for a block the image has never held: every word
#: reads as the image's default, 0.  Read-only, so a missed "first write
#: creates the dict" step fails loudly instead of sharing state.
_NO_WORDS = MappingProxyType({})

#: No bound (as a lane's ``edge``, ``-_NEVER`` puts every commit in the
#: open lookahead run).
_NEVER = float("inf")

_SHARED_LINE = LineState.SHARED

#: The kinds of run a lane commits: addresses to read, ``(addr, value)``
#: pairs to write, and mixed ``(addr, is_write, value)`` plans.
_READS, _WRITES, _PLAN = "reads", "writes", "plan"


def build_access_lanes(node, private_yields, shared_read_yields,
                       shared_write_yields, inbox=()):
    """Return ``(access_inline, run_read_prefix, run_write_prefix,
    run_plan_prefix, charge_inline)`` bound to ``node``.

    ``node`` supplies the engine, machine, TLB, page table, cache,
    image, counters and layout shifts; every container it hands
    over is a stable object (cleared in place, never reassigned), so
    binding them once is safe.  The machine's fault plan, conformance
    monitor, history and lane mode are read per call, so a mid-run mode
    change takes effect on the next call.
    """
    engine = node.engine
    machine = node.machine
    skipped = engine.skipped
    words_of = node.image._blocks
    words_get = words_of.get
    written_add = node.written_blocks.add
    counters = node._counters
    refs_key = node._refs_key
    cycles_key = node._access_cycles_key
    cpu_tlb = node.cpu_tlb
    cache = node.cache
    cache_lookup = cache.lookup
    cache_sets = cache._sets
    set_mask = cache._set_mask
    line_shift = cache._block_shift
    tlb_entries = cpu_tlb._entries
    pt_entries = node.page_table._entries
    image_read = node.image.read
    image_write = node.image.write
    node_id = node.node_id
    layout = node.layout
    page_shift = layout.page_size.bit_length() - 1
    page_mask = ~(layout.page_size - 1)
    block_mask = ~(layout.block_size - 1)
    block_low = layout.block_size - 1
    private_cost = sum(private_yields)
    shared_read_cost = sum(shared_read_yields)
    shared_write_cost = sum(shared_write_yields)
    # Room for at least two of the cheapest elements: a one-element
    # batch costs more in lane setup than the scalar inline commit it
    # replaces (under-claiming is always sound).
    min_room = 2 * private_cost

    def lookahead(edge):
        """A lane's lookahead horizon (no run open, inbox empty), or
        ``edge`` where lookahead is off; never below ``edge``.  The
        node's handler processor keeps its own next event out of the
        engine's fences (``due``, a queued event's time)."""
        if (not engine._running or machine.fault_plan is not None
                or machine.conformance is not None
                or machine.history is not None or not machine.batch_lanes):
            return edge
        bound = engine.horizon(node_id)
        due = node.np.due
        return due if due < bound else bound

    def access_inline(addr, is_write, value=None):
        """Commit one reference that hits, or return None unchanged."""
        if inbox:
            return None
        shared = addr >= SHARED_BASE
        if shared:
            yields = shared_write_yields if is_write else shared_read_yields
            cycles = shared_write_cost if is_write else shared_read_cost
        else:
            yields = private_yields
            cycles = private_cost
        now = engine.now
        target = now + cycles
        # ``edge`` is the engine's window, or this node's run's bound
        # while it is ahead: a scalar hit continues a run but opens
        # none (a run opened here is usually cut short by the next miss,
        # and ending it costs a process round trip of its own).
        if target >= engine.edge:
            return None
        if (addr >> page_shift) not in tlb_entries:
            return None
        if shared and (addr & page_mask) not in pt_entries:
            return None
        block = addr & block_mask
        line = cache_lookup(block)
        if line is None or (is_write and line.state is _SHARED_LINE):
            return None
        # Commit.  The probes above cannot schedule events, so the window
        # check still holds and the clock can move directly.
        if engine.ahead is not None:
            skipped.extend(yields)
        engine.now = target
        cpu_tlb.hits += 1
        cache.hits += 1
        counters[refs_key] += 1
        if is_write:
            image_write(addr, value)
            if shared:
                written_add(block)
            result = None
        else:
            result = value = image_read(addr)
        counters[cycles_key] += cycles
        history = machine.history
        if history is not None:
            history.record(node_id, addr, is_write, value, now, target)
        return (result,)

    def charge_inline(cycles):
        """Commit a compute charge of ``cycles`` > 0, or return False.

        Like a scalar hit, it continues a lookahead run but opens none.
        """
        target = engine.now + cycles
        if target >= engine.edge:
            return False
        if engine.ahead is not None:
            skipped.append(cycles)
        engine.now = target
        return True

    def commit(seq, start, index, now, target, out, kind, edge, bound):
        """Apply the side effects of committing ``seq[start:index]``, a
        run of ``kind`` (:data:`_READS`, :data:`_WRITES` or
        :data:`_PLAN`)."""
        n = index - start
        if target >= edge:
            if engine.ahead is None:
                engine.run_ahead(node_id, bound)
            if kind is _READS and target - now == n * shared_read_cost:
                # Every read shared, or private ones indistinguishable: a
                # shared reference's yields add up to more than the
                # private hit's unless they are the same one hit.
                skipped.extend(shared_read_yields * n)
            elif kind is _WRITES and target - now == n * shared_write_cost:
                skipped.extend(shared_write_yields * n)
            else:
                extend = skipped.extend
                for addr, is_write, _value in decoded(seq, start, index,
                                                      out, kind):
                    if addr < SHARED_BASE:
                        extend(private_yields)
                    elif is_write:
                        extend(shared_write_yields)
                    else:
                        extend(shared_read_yields)
        engine.now = target
        cpu_tlb.hits += n
        cache.hits += n
        counters[refs_key] += n
        if type(now) is int:
            counters[cycles_key] += target - now
        else:
            # A float clock (left by ``run(until=<float>)``): sum the
            # integer costs exactly, as n scalar commits would.
            counters[cycles_key] += sum(
                cost_of(addr, is_write) for addr, is_write, _value
                in decoded(seq, start, index, out, kind))
        history = machine.history
        if history is not None:
            t = now
            for addr, is_write, value in decoded(seq, start, index, out,
                                                 kind):
                cost = cost_of(addr, is_write)
                history.record(node_id, addr, is_write, value, t, t + cost)
                t += cost

    def cost_of(addr, is_write):
        if addr < SHARED_BASE:
            return private_cost
        return shared_write_cost if is_write else shared_read_cost

    def decoded(seq, start, index, out, kind):
        """``(addr, is_write, value)`` per committed element; a read's
        value is the one it appended to ``out``."""
        out_base = len(out) - (index - start)
        for i in range(start, index):
            if kind is _READS:
                yield seq[i], False, out[out_base + i - start]
            elif kind is _WRITES:
                addr, value = seq[i]
                yield addr, True, value
            else:
                addr, is_write, value = seq[i]
                if not is_write:
                    value = out[out_base + i - start]
                yield addr, is_write, value

    def fit(target, cost, bound, most):
        """How many of ``most`` elements costing ``cost`` each, the
        first starting at ``target``, complete before ``bound``: exactly
        the count stepping the clock one element at a time commits.  On
        an int clock the caller has found that not all of them do."""
        if type(target) is not int:
            # A float clock: only stepping rounds as scalar commits do.
            n = 0
            while n < most:
                target += cost
                if target >= bound:
                    break
                n += 1
            return n
        # ``bound`` is finite.  Correct the floored estimate with exact
        # comparisons (an int against an int or float bound).
        n = int((bound - target) // cost)
        while n and target + n * cost >= bound:
            n -= 1
        while target + (n + 1) * cost < bound:
            n += 1
        return n

    def stepped(target, cost, n):
        """A float clock after ``n`` elements costing ``cost`` each."""
        for _ in range(n):
            target += cost
        return target

    def run_read_prefix(addrs, start, out):
        """Commit the longest all-hit prefix of the reads ``addrs[start:]``.

        Appends each committed element's value to ``out`` and returns
        the index of the first element not committed.
        """
        if (inbox or machine.fault_plan is not None
                or machine.conformance is not None):
            return start
        # The window, read once: an element completing before ``bound``
        # commits, and completing at or past ``edge`` makes it part of a
        # lookahead run.  The node's lookahead window is consulted only
        # when the run does not fit the engine's.
        total = len(addrs)
        now = engine.now
        bound = edge = engine.edge
        if engine.ahead is not None:
            edge = -_NEVER
        elif edge < now + (total - start) * shared_read_cost:
            bound = lookahead(edge)
        # Reject before anything else: in lock-step phases another
        # node's event usually sits inside the first hit window.
        if bound <= now + min_room or start >= total:
            return start
        int_clock = type(now) is int
        out_append = out.append
        target = now
        index = start
        addr = addrs[index]
        while True:
            # One page segment: its TLB and page-table probes, its cost
            # and the window's index limit, each found once.
            page = addr >> page_shift
            if page not in tlb_entries:
                break
            if addr >= SHARED_BASE:
                if addr & page_mask not in pt_entries:
                    break
                cost = shared_read_cost
            else:
                cost = private_cost
            first = index
            if int_clock and target + (total - index) * cost < bound:
                limit = total
            else:
                limit = index + fit(target, cost, bound, total - index)
            base = -1
            for index in range(first, limit):
                addr = addrs[index]
                if addr & block_mask != base:
                    if addr >> page_shift != page:
                        break
                    base = addr & block_mask
                    if base not in cache_sets[base >> line_shift & set_mask]:
                        break
                    word = words_get(base, _NO_WORDS).get
                out_append(word(addr & block_low, 0))
            else:
                index = limit
            if index == first:
                break
            if int_clock:
                target += (index - first) * cost
            else:
                target = stepped(target, cost, index - first)
            if index == total:
                break
            # The next page, or this page's window limit (an element of a
            # cheaper page may still fit).
            addr = addrs[index]
        if index != start:
            # The window limits prove no event fires inside [now,
            # target], and the probes schedule nothing, so this equals
            # index - start sequential inline commits.
            commit(addrs, start, index, now, target, out, _READS, edge,
                   bound)
        return index

    def run_write_prefix(pairs, start, out):
        """:func:`run_read_prefix` for the writes ``pairs[start:]``, each
        an ``(addr, value)`` pair; appends None per committed write.

        A write needs the block resident EXCLUSIVE: a write to a SHARED
        line is an upgrade miss and stops the prefix, exactly as the
        scalar path rejects it.
        """
        if (inbox or machine.fault_plan is not None
                or machine.conformance is not None):
            return start
        total = len(pairs)
        now = engine.now
        bound = edge = engine.edge
        if engine.ahead is not None:
            edge = -_NEVER
        elif edge < now + (total - start) * shared_write_cost:
            bound = lookahead(edge)
        if bound <= now + min_room or start >= total:
            return start
        int_clock = type(now) is int
        target = now
        index = start
        addr = pairs[index][0]
        while True:
            page = addr >> page_shift
            if page not in tlb_entries:
                break
            shared = addr >= SHARED_BASE
            if shared:
                if addr & page_mask not in pt_entries:
                    break
                cost = shared_write_cost
            else:
                cost = private_cost
            first = index
            if int_clock and target + (total - index) * cost < bound:
                limit = total
            else:
                limit = index + fit(target, cost, bound, total - index)
            base = -1
            for index in range(first, limit):
                addr, value = pairs[index]
                if addr & block_mask != base:
                    if addr >> page_shift != page:
                        break
                    base = addr & block_mask
                    line = cache_sets[base >> line_shift & set_mask].get(base)
                    if line is None or line.state is _SHARED_LINE:
                        break
                    words = words_get(base)
                    if words is None:
                        # First write to a block the image never held:
                        # create its dict exactly as MemoryImage.write
                        # does.
                        words = words_of[base] = {}
                    if shared:
                        written_add(base)
                words[addr & block_low] = value
            else:
                index = limit
            if index == first:
                break
            if int_clock:
                target += (index - first) * cost
            else:
                target = stepped(target, cost, index - first)
            if index == total:
                break
            # The next page, or this page's window limit (an element of a
            # cheaper page may still fit).
            addr = pairs[index][0]
        if index != start:
            out += [None] * (index - start)
            commit(pairs, start, index, now, target, out, _WRITES, edge,
                   bound)
        return index

    def run_plan_prefix(ops, start, out):
        """:func:`run_read_prefix` for ``(addr, is_write, value)`` ops.

        A committed read appends its value to ``out``, a write None.  A
        write needs the block resident EXCLUSIVE: a write to a SHARED
        line is an upgrade miss and stops the prefix, exactly as the
        scalar path rejects it.
        """
        if (inbox or machine.fault_plan is not None
                or machine.conformance is not None):
            return start
        now = engine.now
        bound = edge = engine.edge
        if engine.ahead is not None:
            edge = -_NEVER
        elif edge < now + (len(ops) - start) * shared_write_cost:
            bound = lookahead(edge)
        if bound <= now + min_room:
            return start
        out_append = out.append
        target = now
        base = page = -1
        for index in range(start, len(ops)):
            addr, is_write, value = ops[index]
            if addr & block_mask != base:
                base = addr & block_mask
                if addr >> page_shift != page:
                    page = addr >> page_shift
                    if page not in tlb_entries:
                        break
                    shared = addr >= SHARED_BASE
                    if shared:
                        if addr & page_mask not in pt_entries:
                            break
                        read_cost = shared_read_cost
                        write_cost = shared_write_cost
                    else:
                        read_cost = write_cost = private_cost
                line = cache_sets[base >> line_shift & set_mask].get(base)
                words = words_get(base, _NO_WORDS)
                unmarked = shared
            if is_write:
                if line is None or line.state is _SHARED_LINE:
                    break
                step = target + write_cost
                if step >= bound:
                    break
                if words is _NO_WORDS:
                    # First write to a block the image never held:
                    # create its dict exactly as MemoryImage.write does.
                    words = words_of[base] = {}
                words[addr & block_low] = value
                if unmarked:
                    written_add(base)
                    unmarked = False
                out_append(None)
            else:
                if line is None:
                    break
                step = target + read_cost
                if step >= bound:
                    break
                out_append(words.get(addr & block_low, 0))
            target = step
        else:
            index = len(ops)
        if index != start:
            commit(ops, start, index, now, target, out, _PLAN, edge, bound)
        return index

    return (access_inline, run_read_prefix, run_write_prefix,
            run_plan_prefix, charge_inline)
