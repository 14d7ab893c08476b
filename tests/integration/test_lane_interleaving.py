"""Property tests: batched access lanes vs the scalar decomposition.

The vectorised run lanes (``AppContext.read_run`` / ``write_run`` /
``access_plan``) promise that batching changes wall-clock only: for any
interleaving of scalar and run accesses, on any backend, under any
fault plan, the batched run is bit-identical — execution time, every
statistic, every node's final memory image — to decomposing each run
into per-element ``read``/``write`` calls.  Hypothesis generates the
interleavings; ``compare_runs`` is the judge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppContext, Application, SharedArray, run_app
from repro.harness.differential import compare_runs
from repro.harness.runner import run_application
from repro.network.faults import FaultSpec
from repro.protocols.stache import StacheProtocol
from repro.sim.config import MachineConfig
from repro.typhoon.system import TyphoonMachine

#: One record per cache block; 136 records = 4352 bytes, so the flat
#: (non-striped) array straddles a 4 KB page boundary and generated
#: runs can cross it.  Every record holds four 8-byte words, and runs
#: address (record, word) slots, so a run can touch several words of
#: one block -- the path the block-granular lane commits per block.
RECORDS = 136
RECORD_BYTES = 32
WORDS = RECORD_BYTES // 8


def _poked(index: int) -> bool:
    """Only even records are initialised: an odd record's block starts
    out held by no node's image, so the first write to it creates the
    image's word dict (on the lane or the scalar path)."""
    return index % 2 == 0


class InterleavingApplication(Application):
    """Executes a generated program of scalar and run accesses."""

    name = "synthetic.interleave"

    def __init__(self, program):
        self.program = program
        self.array: SharedArray | None = None

    def setup(self, machine, protocol=None) -> None:
        self.array = SharedArray(machine, protocol, RECORDS, RECORD_BYTES,
                                 label="ilv", striped=False)
        for index in range(RECORDS):
            if _poked(index):
                self.poke(machine, self.array.addr(index), 0)

    def worker(self, ctx: AppContext):
        shift = ctx.node_id * 3  # nodes overlap but are not identical

        def addr(slot):
            index, word = slot
            return self.array.addr((index + shift) % RECORDS, 8 * word)

        value = ctx.node_id * 1000
        for op, payload in self.program:
            if op == "read":
                yield from ctx.read(addr(payload))
            elif op == "write":
                value += 1
                yield from ctx.write(addr(payload), value)
            elif op == "read_run":
                yield from ctx.read_run([addr(slot) for slot in payload])
            elif op == "write_run":
                pairs = []
                for slot in payload:
                    value += 1
                    pairs.append((addr(slot), value))
                yield from ctx.write_run(pairs)
            elif op == "plan":
                plan = []
                for slot, is_write in payload:
                    if is_write:
                        value += 1
                        plan.append((addr(slot), True, value))
                    else:
                        plan.append((addr(slot), False, None))
                yield from ctx.access_plan(plan)
            elif op == "compute":
                yield from ctx.compute(flops=payload)
            elif op == "barrier":
                yield from ctx.barrier()
        yield from ctx.barrier()


INDICES = st.integers(0, RECORDS - 1)
SLOTS = st.tuples(INDICES, st.integers(0, WORDS - 1))


def _span(first, length):
    """``length`` consecutive words from slot ``first``, across blocks."""
    index, word = first
    return [((index + (word + k) // WORDS) % RECORDS, (word + k) % WORDS)
            for k in range(length)]


#: Three run shapes: arbitrary gathers; consecutive words (the shape the
#: lanes batch best, four words per block, straddling pages); and
#: several words, repeats allowed, of one block.
RUNS = st.one_of(
    st.lists(SLOTS, min_size=1, max_size=12),
    st.tuples(SLOTS, st.integers(1, 16)).map(lambda run: _span(*run)),
    st.tuples(INDICES, st.lists(st.integers(0, WORDS - 1), min_size=1,
                                max_size=8)).map(
        lambda run: [(run[0], word) for word in run[1]]),
)
#: Plans: arbitrary mixes, and write-then-read-back runs over one block
#: -- on an odd record, the first write creates the block's word dict
#: and the reads must see it within the same run.
PLANS = st.one_of(
    st.lists(st.tuples(SLOTS, st.booleans()), min_size=1, max_size=10),
    st.tuples(INDICES, st.lists(st.integers(0, WORDS - 1), min_size=1,
                                max_size=4)).map(
        lambda run: [((run[0], word), True) for word in run[1]]
        + [((run[0], word), False) for word in run[1]]),
)
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), SLOTS),
        st.tuples(st.just("write"), SLOTS),
        st.tuples(st.just("read_run"), RUNS),
        st.tuples(st.just("write_run"), RUNS),
        st.tuples(st.just("plan"), PLANS),
        st.tuples(st.just("compute"), st.integers(0, 6)),
        st.tuples(st.just("barrier"), st.just(0)),
    ),
    min_size=1, max_size=10,
)

#: Every Tempest backend: typhoon (hardware NP), blizzard (polling,
#: inbox deopt), decoupled (no poll term; handlers on a second CPU).
SYSTEMS = ["typhoon:stache", "blizzard:stache", "decoupled:stache",
           "typhoon:migratory"]

LOSSY = FaultSpec(name="lossy", drop_pct=0.05, dup_pct=0.03,
                  delay_pct=0.15, delay_min=1, delay_max=9)


def _assert_lanes_agree(program, system, faults=None):
    config = MachineConfig(nodes=2, seed=7).with_cache_size(1024)
    outcomes = {}
    for lanes in ("scalar", "batched"):
        outcomes[lanes] = run_application(
            system, InterleavingApplication(program), config,
            faults=faults, lanes=lanes,
        )
    diffs = compare_runs(outcomes["scalar"], outcomes["batched"],
                         labels=("scalar", "batched"))
    assert not diffs, (system, faults, diffs)


@given(program=PROGRAMS,
       system=st.sampled_from(SYSTEMS),
       faulty=st.booleans())
@settings(max_examples=60, deadline=None)
def test_property_interleavings_bit_identical(program, system, faulty):
    _assert_lanes_agree(program, system, LOSSY if faulty else None)


#: A fixed program through every lane path the generator aims at:
#: multi-word runs, a write-then-read-back plan over a block no image
#: has held (record 1 is odd, so never poked), and page-straddling spans.
MULTIWORD_PROGRAM = [
    ("read_run", _span((0, 0), 16)),
    ("read_run", [(1, 0), (1, 1), (1, 2), (1, 3)]),
    ("plan", [((1, 2), True), ((1, 0), True), ((1, 2), False),
              ((1, 0), False), ((1, 3), False)]),
    ("write_run", _span((126, 1), 16)),
    ("barrier", 0),
    ("read_run", _span((126, 0), 24)),
    ("plan", [((3, word), True) for word in range(WORDS)]
     + [((3, word), False) for word in range(WORDS)]),
    ("read_run", [(3, 1), (3, 1), (2, 0), (3, 3)]),
]


@pytest.mark.parametrize("system", SYSTEMS)
def test_multiword_program_bit_identical(system):
    _assert_lanes_agree(MULTIWORD_PROGRAM, system)


# ----------------------------------------------------------------------
# Regression: a run straddling a page boundary splits at the boundary
# ----------------------------------------------------------------------
class _WarmFirstPage(Application):
    """Touches every word of the region's first page only."""

    name = "synthetic.warm"

    def __init__(self, region):
        self.region = region

    def setup(self, machine, protocol=None) -> None:
        pass

    def worker(self, ctx: AppContext):
        base = self.region.base
        for offset in range(0, 4096, 8):
            yield from ctx.read(base + offset)


def test_run_straddling_page_boundary_splits(monkeypatch):
    # Counts lane commits: the lanes deopt under the conformance
    # monitor, so the ambient REPRO_CONFORMANCE switch is pinned off.
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    machine = TyphoonMachine(MachineConfig(nodes=1, seed=3))
    protocol = StacheProtocol()
    machine.install_protocol(protocol)
    region = machine.heap.allocate(2 * 4096, label="straddle")
    protocol.setup_region(region)
    for offset in range(0, 2 * 4096, 8):
        machine.nodes[0].image.write(region.base + offset, offset)
    run_app(machine, _WarmFirstPage(region), protocol)

    node = machine.nodes[0]
    boundary = region.base + 4096
    # Four words each side of the page boundary; only the first page is
    # TLB-resident and cached.
    addrs = [boundary - 32 + 8 * k for k in range(8)]
    page0, page1 = addrs[0] >> 12, addrs[-1] >> 12
    assert page0 != page1
    assert page0 in node.cpu_tlb
    assert node.page_table.is_mapped(addrs[0])
    assert page1 not in node.cpu_tlb

    out: list = []
    index = node.run_read_prefix(addrs, 0, out)
    # The lane commits exactly the first-page prefix and stops at the
    # boundary; the unmapped second page is the tail's problem.
    assert index == 4, index
    assert out == [addrs[k] - region.base for k in range(4)]

    # After the scalar path services the straddling element (one block
    # fetch maps the page and caches the block), the retried lane
    # commits the rest of the run.
    def service(node_id):
        yield from node.access(addrs[4], False)

    machine.run_workers(service)
    machine.engine._until = None
    out2: list = []
    index2 = node.run_read_prefix(addrs, 5, out2)
    assert index2 == 8, index2
    assert out2 == [addrs[k] - region.base for k in range(5, 8)]
