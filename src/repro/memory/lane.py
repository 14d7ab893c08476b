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
references to a node's ``run_read_prefix``/``run_plan_prefix``.  Those
two callables commit the longest prefix of the run that would hit, in
one step, with effects identical to that many scalar inline hits: the
same clock, counters, data image, ``written_blocks`` and history.  They
return the index of the first element *not* committed; the caller
services it through the scalar path and retries from there.

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

The lane works per cache block rather than per word.  It probes the
:class:`~repro.memory.mirror.AccessMirror` page flags only when the page
changes and the block's flags byte only when the block changes, fetches
the block's word dict from the :class:`~repro.memory.data.MemoryImage`
once per block, and adds a written block to ``written_blocks`` once.
The engine-window bound is read once per call; each element's
completion time is compared against it.

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
from repro.memory.mirror import PAGE_MAPPED, READ_HIT, TLB_PRESENT, WRITE_HIT

#: Stand-in word dict for a block the image has never held: every word
#: reads as the image's default, 0.  Read-only, so a missed "first write
#: creates the dict" step fails loudly instead of sharing state.
_NO_WORDS = MappingProxyType({})

#: No bound (as a lane's ``edge``, ``-_NEVER`` puts every commit in the
#: open lookahead run).
_NEVER = float("inf")

#: Page-flag bits a hit needs on shared and on private pages.
_SHARED_NEED = TLB_PRESENT | PAGE_MAPPED
_PRIVATE_NEED = TLB_PRESENT

_SHARED_LINE = LineState.SHARED


def build_access_lanes(node, private_yields, shared_read_yields,
                       shared_write_yields, inbox=()):
    """Return ``(access_inline, run_read_prefix, run_plan_prefix,
    charge_inline)`` bound to ``node``.

    ``node`` supplies the engine, machine, TLB, page table, cache,
    mirror, image, counters and layout shifts; every container it hands
    over is a stable object (cleared in place, never reassigned), so
    binding them once is safe.  The machine's fault plan, conformance
    monitor, history and lane mode are read per call, so a mid-run mode
    change takes effect on the next call.
    """
    engine = node.engine
    machine = node.machine
    skipped = engine.skipped
    page_flags_get = node.mirror.page_flags.get
    block_flags_get = node.mirror.block_flags.get
    words_of = node.image._blocks
    words_get = words_of.get
    written_add = node.written_blocks.add
    counters = node._counters
    refs_key = node._refs_key
    cycles_key = node._access_cycles_key
    cpu_tlb = node.cpu_tlb
    cache = node.cache
    cache_lookup = cache.lookup
    tlb_entries = cpu_tlb._entries
    pt_entries = node.page_table._entries
    image_read = node.image.read
    image_write = node.image.write
    node_id = node.node_id
    layout = node.layout
    page_shift = layout.page_size.bit_length() - 1
    page_mask = ~(layout.page_size - 1)
    block_shift = layout.block_size.bit_length() - 1
    block_mask = ~(layout.block_size - 1)
    block_low = layout.block_size - 1
    bpp_mask = layout.blocks_per_page - 1
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

    def commit(seq, start, index, now, target, out, plan, edge, bound):
        """Apply the side effects of committing ``seq[start:index]``."""
        n = index - start
        if target >= edge:
            if engine.ahead is None:
                engine.run_ahead(node_id, bound)
            if not plan and target - now == n * shared_read_cost:
                # Every read shared, or private ones indistinguishable: a
                # shared read's yields add up to more than the private
                # hit's unless they are the same one hit.
                skipped.extend(shared_read_yields * n)
            else:
                extend = skipped.extend
                for i in range(start, index):
                    if plan:
                        addr, is_write, _value = seq[i]
                    else:
                        addr, is_write = seq[i], False
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
                cost for _addr, _write, _value, cost
                in elements(seq, start, index, out, plan))
        history = machine.history
        if history is not None:
            t = now
            for addr, is_write, value, cost in elements(seq, start, index,
                                                        out, plan):
                history.record(node_id, addr, is_write, value, t, t + cost)
                t += cost

    def elements(seq, start, index, out, plan):
        """``(addr, is_write, value, cost)`` per committed element."""
        out_base = len(out) - (index - start)
        for i in range(start, index):
            if plan:
                addr, is_write, value = seq[i]
            else:
                addr, is_write = seq[i], False
            if not is_write:
                value = out[out_base + i - start]
            if addr < SHARED_BASE:
                cost = private_cost
            else:
                cost = shared_write_cost if is_write else shared_read_cost
            yield addr, is_write, value, cost

    def run_read_prefix(addrs, start, out):
        """Commit the longest all-hit prefix of the reads ``addrs[start:]``.

        Appends each committed element's value to ``out`` and returns
        the index of the first element not committed.
        """
        if (inbox or machine.fault_plan is not None
                or machine.conformance is not None):
            return start
        # The window, read once: an element completing at ``step``
        # commits while ``step < bound``, and completing at or past
        # ``edge`` makes it part of a lookahead run.  The node's
        # lookahead window is consulted only when the run does not fit
        # the engine's.
        now = engine.now
        bound = edge = engine.edge
        if engine.ahead is not None:
            edge = -_NEVER
        elif edge < now + (len(addrs) - start) * shared_read_cost:
            bound = lookahead(edge)
        # Reject before anything else: in lock-step phases another
        # node's event usually sits inside the first hit window.
        if bound <= now + min_room:
            return start
        out_append = out.append
        target = now
        base = page = -1
        for index in range(start, len(addrs)):
            addr = addrs[index]
            if addr & block_mask != base:
                base = addr & block_mask
                if addr >> page_shift != page:
                    page = addr >> page_shift
                    if addr >= SHARED_BASE:
                        need, cost = _SHARED_NEED, shared_read_cost
                    else:
                        need, cost = _PRIVATE_NEED, private_cost
                    if page_flags_get(page, 0) & need != need:
                        break
                    blocks = block_flags_get(page)
                    if blocks is None:
                        break
                if not blocks[(addr >> block_shift) & bpp_mask] & READ_HIT:
                    break
                word = words_get(base, _NO_WORDS).get
            step = target + cost
            if step >= bound:
                break
            out_append(word(addr & block_low, 0))
            target = step
        else:
            index = len(addrs)
        if index != start:
            # The per-element window checks prove no event fires inside
            # [now, target], and the probes schedule nothing, so this
            # equals index - start sequential inline commits.
            commit(addrs, start, index, now, target, out, False, edge, bound)
        return index

    def run_plan_prefix(ops, start, out):
        """:func:`run_read_prefix` for ``(addr, is_write, value)`` ops.

        A committed read appends its value to ``out``, a write None.  A
        write needs the block resident EXCLUSIVE (the mirror's WRITE_HIT
        bit): a write to a SHARED line is an upgrade miss and stops the
        prefix, exactly as the scalar path rejects it.
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
                    shared = addr >= SHARED_BASE
                    if shared:
                        need = _SHARED_NEED
                        read_cost = shared_read_cost
                        write_cost = shared_write_cost
                    else:
                        need = _PRIVATE_NEED
                        read_cost = write_cost = private_cost
                    if page_flags_get(page, 0) & need != need:
                        break
                    blocks = block_flags_get(page)
                    if blocks is None:
                        break
                flags = blocks[(addr >> block_shift) & bpp_mask]
                words = words_get(base, _NO_WORDS)
                unmarked = shared
            if is_write:
                if not flags & WRITE_HIT:
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
                if not flags & READ_HIT:
                    break
                step = target + read_cost
                if step >= bound:
                    break
                out_append(words.get(addr & block_low, 0))
            target = step
        else:
            index = len(ops)
        if index != start:
            commit(ops, start, index, now, target, out, True, edge, bound)
        return index

    return access_inline, run_read_prefix, run_plan_prefix, charge_inline
