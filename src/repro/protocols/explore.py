"""Bounded, stateless exploration of the real protocol handlers.

The conformance layer (:mod:`repro.protocols.conformance`) declares each
protocol's legal behaviour as data: transition tables plus handler
vocabularies.  This module walks the protocols themselves — the handler
code a Tempest machine runs (paper §2–3) — over a small bound (2–3
nodes, 1–2 blocks, a couple of faulting accesses per node), enumerating
interleavings of interface operations and in-flight message deliveries,
including the overtake/reorder schedules the
:class:`~repro.network.faults.FaultPlan` vocabulary can express.  Each
explored prefix is emitted as a concrete, deterministically *pinned*
litmus test (an access program plus a
:class:`~repro.network.faults.ScriptedFaultPlan` schedule) that
:mod:`repro.harness.litmus` replays on every backend.

The walk is *stateless*: a prefix is a :class:`SynthesizedCase`, and
every step replays it on a fresh machine (``typhoon:stache``,
``dirnnb``, ``typhoon:ivy``) up to its last slot.  Protocol messages
the prefix has not chosen to deliver stay parked in flight.  The walk
then reads the next choices off the replayed machine:

* issue a node's next faulting access at the next slot;
* deliver a parked message at the next slot, jumping at most
  ``max_overtake`` earlier messages on its channel (a ``reorder``);
* issue a store in the same cycle as a handler that changed a tag on
  that node — the window in which a store that hits can race the
  handler's export.

States are deduplicated on a canonical form, minimized over
permutations of the non-home nodes, of the home directory entries, the
tags, the parked messages and each node's program position (for a
pending load, also how many stores had completed when it began: that is
what the consistency oracle judges its result by).

Three things fall out:

* **Coverage, not sampling.**  Every ``(directory state, event,
  receiver tag)`` edge the :class:`ConformanceMonitor
  <repro.protocols.conformance.ConformanceMonitor>` records within the
  bound is enumerated; the emitted corpus is a greedy set cover, so
  replaying it drives the machine through every edge the walk reached.
  The grant-vs-invalidation overtaking family is *derived*, not guessed.
* **The specs check the code.**  Every replay runs under the strict
  monitor, so a handler step outside the declarative tables is a
  :class:`~repro.protocols.verify.CoherenceViolation`; the
  register-consistency oracle checks every replayed history.
* **Determinism.**  Exploration draws no random numbers and reads no
  clocks; the same handlers and bounds produce byte-identical corpora,
  which is what lets ``tests/litmus/`` be committed and CI regenerate
  it, failing on drift.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import permutations

from repro.network.faults import FaultRule, ScriptedFaultPlan
from repro.protocols.history import AccessHistory, check_register_consistency
from repro.protocols.verify import CoherenceViolation
from repro.sim.config import MachineConfig
from repro.sim.process import Process

__all__ = [
    "CaseRun",
    "ExploreConfig",
    "ExplorationResult",
    "SynthesizedCase",
    "explore_protocol",
    "run_case",
    "synthesize_corpus",
    "EXPLORABLE_PROTOCOLS",
    "SCHEDULE_STRIDE",
]

#: Cycles between consecutive walk steps.  Much larger than any natural
#: handler/transfer latency in the simulator (an IVY page transfer is
#: the worst case), so each step settles before the next one starts and
#: a schedule of slot delays reproduces the walked interleaving on every
#: backend.
SCHEDULE_STRIDE = 20_000

#: Extra flight time of a protocol message the walk has not delivered
#: yet: beyond every step of a bounded walk, and short of the scripted
#: plan's retransmit timeout.
_PARKED = ScriptedFaultPlan.RETRY_TIMEOUT // 2

#: IVY's litmus page: the page is IVY's coherence grain whatever its
#: size, and a 4 KB page would make every transfer 64 bulk packets.
_IVY_PAGE = 256

#: Explorable protocol -> the system whose handlers the walk runs.
#: ``migratory`` shares the stache conformance tables, and
#: ``em3d-update`` inherits the plain Stache paths for ordinary shared
#: data, so the stache corpus serves both as replay input.
EXPLORABLE_PROTOCOLS = {
    "stache": "typhoon:stache",
    "dirnnb": "dirnnb",
    "ivy": "typhoon:ivy",
}

#: Message payload keys whose values are node ids (renamed when
#: canonicalizing under node permutation).
_NODE_KEYS = frozenset({
    "requester", "sharer", "owner", "member", "home", "manager",
})
#: Payload keys left out of the state: data values, and the monotone
#: sequence counters, which would make every refetch round of the
#: adversarial livelock (see :attr:`ExploreConfig.max_steps`) a fresh
#: state.  Whether a grant is still in flight shows in the parked
#: messages themselves.
_UNKEYED = frozenset({"data", "words", "version", "fetch_seq", "grant_seq"})


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds for one exploration: small by design (litmus, not model
    checking at scale)."""

    nodes: int = 3
    blocks: int = 1
    ops_per_node: int = 2
    #: A delivery may jump at most this many queued messages on its
    #: channel (0 = strict FIFO; 1 models one in-flight overtake, which
    #: is what a single ``reorder`` fault verdict can express).
    max_overtake: int = 1
    #: Optional cap on the *total* faulting accesses across all nodes;
    #: lets a 3-node bound stay tractable (any two nodes can still use
    #: their full per-node budget against each other).
    total_ops: int | None = None
    #: Walk-depth bound.  Necessary, not merely economical: with three
    #: nodes the walk finds a genuine adversarial livelock — two remote
    #: requesters can poison each other's grants forever (each refetch
    #: triggers the writeback/invalidation that poisons the other's
    #: next grant), and the growing fetch sequence numbers make every
    #: round a fresh state.  Fair delivery terminates the real machine;
    #: the unfair schedules are unbounded, so exploration is
    #: depth-bounded like any litmus-scale model check.
    max_steps: int = 20

    def __post_init__(self):
        if self.nodes < 2 or self.blocks < 1 or self.ops_per_node < 1:
            raise ValueError(f"degenerate bounds {self!r}")
        # Every replay stops before a parked message could arrive.
        if _slot(self.max_steps + 1) >= _PARKED:
            raise ValueError(
                f"max_steps={self.max_steps} reaches the parked-message "
                f"horizon ({_PARKED} cycles)"
            )


@dataclass
class SynthesizedCase:
    """One concrete litmus test: program + deterministic schedule."""

    protocol: str
    name: str
    nodes: int
    blocks: int
    #: node -> ordered [(op, block_index, at_cycle)] with op in
    #: {"r", "w"}; the worker idles until ``at_cycle`` before issuing,
    #: which pins each access to its step of the walked interleaving.
    programs: dict
    #: ScriptedFaultPlan rules as plain dicts (handler/src/dst/
    #: occurrence/action/delay).
    schedule: list
    #: Edges this case covers, as [[state, event, dst_state], ...].
    edges: list
    #: Protocol counters the walk saw along the case (e.g.
    #: stache.grants_poisoned); family-specific replay tests assert the
    #: interesting ones.
    expect_stats: dict
    #: Human-readable trace, one line per step (documentation only).
    trace: list


# ----------------------------------------------------------------------
# Building and running one case (shared with repro.harness.litmus)
# ----------------------------------------------------------------------
class _ParkingPlan(ScriptedFaultPlan):
    """A scripted plan that parks every protocol message no rule fires
    on.  Walk rules always carry a positive delay, so "no action, no
    delay" means no rule fired."""

    __slots__ = ("parkable",)

    def __init__(self, rules, parkable: frozenset):
        super().__init__(rules)
        self.parkable = parkable

    @property
    def is_null(self) -> bool:
        return False

    def link_verdict(self, message):
        action, extra = super().link_verdict(message)
        if (action is None and not extra and message.attempt == 1
                and message.handler in self.parkable):
            extra = _PARKED
        return action, extra


@dataclass
class CaseRun:
    """A machine built for one case, after :func:`run_case` ran it."""

    machine: object
    monitor: object
    #: Address of block 0 and the distance between blocks (the
    #: protocol's coherence grain).
    base: int
    stride: int
    #: Remote first-attempt packets in send order (walk runs only).
    sends: list = field(default_factory=list)
    delivered: set = field(default_factory=set)

    def blocks(self, config: "ExploreConfig") -> list:
        """The address of every litmus block."""
        return [self.base + b * self.stride for b in range(config.blocks)]

    def _observe(self, kind: str, message) -> None:
        if message.src == message.dst:
            return
        if kind == "send" and message.attempt == 1:
            self.sends.append(message)
        elif kind == "deliver":
            self.delivered.add(message.msg_id)


def _vocabulary(spec) -> frozenset:
    return (spec.request_handlers | spec.grant_handlers
            | spec.inval_handlers | spec.ack_handlers
            | spec.writeback_request_handlers
            | spec.writeback_reply_handlers)


def run_case(case: SynthesizedCase, system: str,
             config: MachineConfig | None = None,
             until: int | None = None) -> CaseRun:
    """Build ``system`` fresh and run ``case`` on it.

    The home of the litmus region is node 0, conformance monitoring is
    strict, accesses are recorded for the consistency oracle, and the
    case's schedule is installed as a scripted fault plan.  Block
    addresses stride by the protocol's coherence grain — cache blocks
    everywhere except IVY, whose grain is the (small) page.  With ``until``
    None the run drains; with a cycle, every protocol message no rule
    schedules stays parked in flight and the engine stops at ``until``
    (a walk prefix replayed to its last slot).
    """
    from repro.backends import compose

    if config is None:
        config = MachineConfig(nodes=case.nodes, seed=0).with_cache_size(2048)
        if case.protocol == "ivy":
            config = replace(config, page_size=_IVY_PAGE)
    machine, protocol = compose(system, config)
    stride = (machine.layout.page_size if case.protocol == "ivy"
              else machine.layout.block_size)
    region = machine.heap.allocate(case.blocks * stride, home=0,
                                   label=f"litmus:{case.name}")
    if protocol is not None:
        protocol.setup_region(region)
    machine.history = AccessHistory()
    monitor = machine.enable_conformance(strict=True)
    run = CaseRun(machine, monitor, region.base, stride)
    rules = [FaultRule(**rule) for rule in case.schedule]
    if until is None:
        machine.install_fault_plan(ScriptedFaultPlan(rules))
    else:
        machine.install_fault_plan(
            _ParkingPlan(rules, _vocabulary(monitor.spec)))
        machine.interconnect.observers.append(run._observe)

    def worker(node_id: int):
        node = machine.nodes[node_id]
        for index, (op, block, at) in enumerate(
                case.programs.get(node_id, ())):
            wait = at - machine.engine.now
            if wait > 0:
                yield wait
            addr = region.base + block * stride
            if op == "w":
                yield from node.access(addr, True, node_id * 100 + index + 1)
            else:
                yield from node.access(addr, False)

    if until is None:
        machine.run_workers(worker)
    else:
        for node_id in range(case.nodes):
            Process(machine.engine, worker(node_id), name=f"cpu{node_id}")
        machine.engine.run(until=until)
    return run


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Prefix:
    """One walked prefix: the case so far, with its step cycles."""

    programs: tuple     # per node: ((op, block, at), ...)
    rules: tuple        # schedule rule dicts, in the order chosen
    times: tuple        # cycle of each step
    trace: tuple

    def case(self, protocol: str, config: ExploreConfig) -> SynthesizedCase:
        return SynthesizedCase(
            protocol=protocol, name="walk", nodes=config.nodes,
            blocks=config.blocks,
            programs={n: list(ops) for n, ops in enumerate(self.programs)
                      if ops},
            schedule=list(self.rules), edges=[], expect_stats={},
            trace=list(self.trace),
        )


@dataclass
class _Visit:
    """What one replay of a prefix showed."""

    prefix: _Prefix
    key: str
    edges: frozenset
    stats: dict
    #: Parked protocol messages in send order:
    #: (handler, src, dst, vnet, occurrence, send-step cycle, payload).
    parked: list
    choices: list


@dataclass
class ExplorationResult:
    """Everything one bounded exploration learned."""

    protocol: str
    config: ExploreConfig
    #: Every reachable (state, event, dst_state) edge.
    edges: set
    #: edge -> the shortest walked visit that first took it.
    edge_visits: dict
    states: int
    transitions: int


def _slot(step: int) -> int:
    return step * SCHEDULE_STRIDE


def _frozen_payload(payload: dict, perm: tuple, base: int,
                    stride: int) -> tuple:
    items = []
    for key, value in sorted(payload.items()):
        if key in _UNKEYED:
            continue
        if key == "addr":
            value = (value - base) // stride
        elif key in _NODE_KEYS and value is not None:
            value = perm[value]
        items.append((key, getattr(value, "value", value)))
    return tuple(items)


def _frozen_record(record, perm: tuple) -> tuple:
    """A home directory entry or IVY manager record, node-renamed."""
    if record is None:
        return ()
    if hasattr(record, "copyset"):
        requests = ([record.active] if record.active else []) + list(
            record.queue)
        return (perm[record.owner],
                tuple(sorted(perm[n] for n in record.copyset)),
                record.busy, record.acks_outstanding,
                tuple((perm[r], w) for r, w in requests))
    return (record.state.value,
            -1 if record.owner is None else perm[record.owner],
            tuple(sorted(perm[n] for n in record.sharers())),
            record.acks_outstanding,
            tuple((perm[r], w) for r, w in record.pending))


def _canonical(run: CaseRun, prefix: _Prefix, config: ExploreConfig,
               parked: list, blocked: list, records: list) -> str:
    """The state's minimal form over renamings of the non-home nodes."""
    monitor = run.monitor
    blocks = run.blocks(config)
    homes = [monitor.home_record(addr) for addr in blocks]
    tags = [[monitor.tag_at(n, addr) for addr in blocks]
            for n in range(config.nodes)]
    # A pending load's start matters to the consistency oracle: it may
    # return any store that had not been overwritten when it began.
    positions = []
    for n, program in enumerate(prefix.programs):
        epoch = None
        if blocked[n] and program[-1][0] == "r":
            _op, block, at = program[-1]
            epoch = sum(1 for record in records
                        if record.is_write and record.end < at
                        and record.addr == blocks[block])
        positions.append((len(program), epoch))
    best = None
    for others in permutations(range(1, config.nodes)):
        perm = (0,) + others
        inverse = sorted(range(config.nodes), key=perm.__getitem__)
        channels: dict = {}
        for handler, src, dst, vnet, _occ, _at, payload in parked:
            channels.setdefault((perm[src], perm[dst], int(vnet)), []).append(
                (handler, _frozen_payload(payload, perm, run.base,
                                          run.stride)))
        frozen = repr((
            tuple(_frozen_record(home, perm) for home in homes),
            tuple(tuple(tags[n]) for n in inverse),
            tuple(positions[n] for n in inverse),
            tuple(sorted((channel, tuple(msgs))
                         for channel, msgs in channels.items())),
        ))
        if best is None or frozen < best:
            best = frozen
    return best


#: Receiver tags (a Tempest tag, or a DirNNB cache-line state) under
#: which a load / a store proceeds without leaving the node.
_READABLE = frozenset({"ReadWrite", "ReadOnly", "exclusive", "shared"})
_WRITABLE = frozenset({"ReadWrite", "exclusive"})


def _faults(run: CaseRun, node_id: int, addr: int, op: str) -> bool:
    """Would this access leave the node (a tag fault or, on DirNNB, a
    cache miss)?  Hits and local fills change no protocol state."""
    allowed = _WRITABLE if op == "w" else _READABLE
    return run.monitor.tag_at(node_id, addr) not in allowed


def _parked(run: CaseRun, prefix: _Prefix) -> list:
    """The protocol messages still in flight, in send order."""
    vocabulary = _vocabulary(run.monitor.spec)
    occurrence: dict = {}
    parked = []
    for message in run.sends:
        key = (message.handler, message.src, message.dst)
        occurrence[key] = occurrence.get(key, 0) + 1
        if (message.msg_id in run.delivered
                or message.handler not in vocabulary):
            continue
        sent_at = prefix.times[bisect_right(prefix.times,
                                            message.send_time) - 1]
        parked.append((message.handler, message.src, message.dst,
                       message.vnet, occurrence[key], sent_at,
                       message.payload))
    return parked


def _choices(run: CaseRun, prefix: _Prefix, config: ExploreConfig,
             parked: list, blocked: list, records: list) -> list:
    next_slot = _slot(len(prefix.times) + 1)
    issued = [len(ops) for ops in prefix.programs]
    total = config.total_ops
    if total is None:
        total = config.nodes * config.ops_per_node
    choices = []
    if sum(issued) < total:
        last = prefix.times[-1] if prefix.times else 0
        idle_since = {record.node: record.end for record in records}
        for n in range(config.nodes):
            if blocked[n] or issued[n] >= config.ops_per_node:
                continue
            for block, addr in enumerate(run.blocks(config)):
                for op in ("r", "w"):
                    if _faults(run, n, addr, op):
                        choices.append(("op", n, op, block, next_slot))
                # The same-cycle window: a handler on this node changed
                # the block's tag during the last step, with the node
                # idle.
                for at in sorted({
                    event.time for event in run.monitor.recorder.events(addr)
                    if event.kind == "tag" and event.node == n
                    and event.block == addr and event.time > last
                    and event.time > idle_since.get(n, -1)
                }):
                    choices.append(("op", n, "w", block, int(at)))
    channels: dict = {}
    for message in parked:
        channels.setdefault(message[1:4], []).append(message)
    for channel in sorted(channels, key=lambda c: (c[0], c[1], int(c[2]))):
        fifo = channels[channel]
        for position in range(min(len(fifo), config.max_overtake + 1)):
            choices.append(("deliver", fifo[position], position, next_slot))
    return choices


def _visit(protocol: str, prefix: _Prefix,
           config: ExploreConfig) -> _Visit:
    """Replay ``prefix`` to its last slot and read off its choices."""
    try:
        run = run_case(prefix.case(protocol, config),
                       EXPLORABLE_PROTOCOLS[protocol],
                       until=_slot(len(prefix.times) + 1) - 1)
    except CoherenceViolation as exc:
        raise CoherenceViolation(
            f"{exc}\nwalk prefix:\n  " + "\n  ".join(prefix.trace)
        ) from exc
    machine = run.machine
    inconsistent = check_register_consistency(machine.history)
    if inconsistent:
        raise CoherenceViolation(
            f"{protocol} walk: {inconsistent[0]}\nwalk prefix:\n  "
            + "\n  ".join(prefix.trace)
        )
    records = machine.history.records
    finished = [0] * config.nodes
    for record in records:
        finished[record.node] += 1
    blocked = [len(ops) > done
               for ops, done in zip(prefix.programs, finished)]
    parked = _parked(run, prefix)
    return _Visit(
        prefix=prefix,
        key=_canonical(run, prefix, config, parked, blocked, records),
        edges=frozenset(run.monitor.edges),
        stats={key: int(value) for key, value in sorted(machine.stats)
               if key.startswith(f"{protocol}.") and value},
        parked=parked,
        choices=_choices(run, prefix, config, parked, blocked, records),
    )


def _extend(prefix: _Prefix, choice: tuple) -> _Prefix:
    if choice[0] == "op":
        _, node, op, block, at = choice
        programs = list(prefix.programs)
        programs[node] = programs[node] + ((op, block, at),)
        return replace(
            prefix, programs=tuple(programs), times=prefix.times + (at,),
            trace=prefix.trace + (
                f"node{node}: {'write' if op == 'w' else 'read'} "
                f"block {block} at {at}",),
        )
    _, (handler, src, dst, _vnet, occurrence, sent_at, _payload), \
        position, at = choice
    rule = {"handler": handler, "src": src, "dst": dst,
            "occurrence": occurrence,
            "action": "reorder" if position else None,
            "delay": at - sent_at}
    overtaking = " (overtaking)" if position else ""
    return replace(
        prefix, rules=prefix.rules + (rule,), times=prefix.times + (at,),
        trace=prefix.trace + (
            f"deliver {handler} node{src} -> node{dst}{overtaking}",),
    )


def explore_protocol(name: str,
                     config: ExploreConfig | None = None) -> ExplorationResult:
    """Breadth-first walk of ``name``'s handlers under ``config``."""
    if name not in EXPLORABLE_PROTOCOLS:
        raise ValueError(
            f"no exploration system for {name!r} "
            f"(have {sorted(EXPLORABLE_PROTOCOLS)})"
        )
    config = config or ExploreConfig()
    root = _visit(name, _Prefix(programs=((),) * config.nodes, rules=(),
                                times=(), trace=()), config)
    seen = {root.key}
    edge_visits = {edge: root for edge in root.edges}
    queue = deque([root])
    transitions = 0
    while queue:
        visit = queue.popleft()
        for choice in visit.choices:
            child = _visit(name, _extend(visit.prefix, choice), config)
            transitions += 1
            for edge in child.edges:
                edge_visits.setdefault(edge, child)
            if len(child.prefix.times) >= config.max_steps:
                continue
            if child.key not in seen:
                seen.add(child.key)
                queue.append(child)
    return ExplorationResult(
        protocol=name, config=config, edges=set(edge_visits),
        edge_visits=edge_visits, states=len(seen), transitions=transitions,
    )


# ----------------------------------------------------------------------
# Walk -> pinned litmus corpus
# ----------------------------------------------------------------------
def _edge_sort_key(edge):
    return tuple("" if part is None else str(part) for part in edge)


def _emit_case(protocol: str, visit: _Visit, index: int,
               config: ExploreConfig) -> SynthesizedCase:
    """The walked prefix, plus a tail that releases whatever it left
    parked one slot apart in send order, so the pinned prefix replays
    before the tail drains."""
    prefix = visit.prefix
    case = prefix.case(protocol, config)
    after = len(prefix.times)
    for offset, (handler, src, dst, _vnet, occurrence, sent_at,
                 _payload) in enumerate(visit.parked, start=1):
        case.schedule.append({
            "handler": handler, "src": src, "dst": dst,
            "occurrence": occurrence, "action": None,
            "delay": _slot(after + offset) - sent_at,
        })
    case.name = f"{protocol}-{index:03d}"
    case.edges = [list(edge)
                  for edge in sorted(visit.edges, key=_edge_sort_key)]
    case.expect_stats = dict(visit.stats)
    return case


def synthesize_corpus(name: str,
                      configs: tuple[ExploreConfig, ...] = (
                          ExploreConfig(nodes=3, blocks=1, ops_per_node=2,
                                        total_ops=4),
                          ExploreConfig(nodes=2, blocks=2, ops_per_node=1),
                      )) -> tuple[list[SynthesizedCase], ExplorationResult]:
    """Explore ``name`` under each bound and greedily cover its edges.

    Returns the chosen cases plus the (merged-bounds) exploration result
    whose edge set is the coverage obligation.  Greedy set cover over
    shortest-first witness prefixes keeps the corpus small while the
    union of case edges equals every reachable edge — the property
    ``tests/protocols/test_explore.py`` asserts.
    """
    merged: dict = {}
    results = []
    for config in configs:
        result = explore_protocol(name, config)
        results.append(result)
        for edge, visit in result.edge_visits.items():
            known = merged.get(edge)
            if known is None or (len(visit.prefix.times)
                                 < len(known[0].prefix.times)):
                merged[edge] = (visit, config)
    candidates = {id(visit): (visit, config)
                  for visit, config in merged.values()}
    uncovered = set(merged)
    chosen = []
    pool = list(candidates.values())
    while uncovered:
        pool.sort(key=lambda entry: (-len(entry[0].edges & uncovered),
                                     len(entry[0].prefix.times)))
        visit, config = pool.pop(0)
        uncovered -= visit.edges
        chosen.append((visit, config))
    cases = [
        _emit_case(name, visit, index, config)
        for index, (visit, config) in enumerate(chosen)
    ]
    primary = results[0]
    primary.edges = set(merged)
    primary.edge_visits = {edge: visit for edge, (visit, _c) in merged.items()}
    primary.states = sum(result.states for result in results)
    primary.transitions = sum(result.transitions for result in results)
    return cases, primary
