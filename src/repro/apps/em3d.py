"""EM3D: electromagnetic wave propagation on a bipartite graph (Section 4).

The principal data structure is a bipartite graph: E nodes hold electric
field values, H nodes magnetic field values.  Each iteration first
computes new E values as weighted sums of neighbouring H values, then
updates H values from the new E values (Program 1 in the paper).  Graph
nodes are spread evenly across processors and each processor updates its
own nodes (owners-compute); edge endpoints are remote with a configurable
probability — the x-axis of Figure 4.

One graph node occupies one 32-byte block: offset 0 is the ``value``
field, offset 8 scratch.  Edge weights live in owner-local shared memory
(they are only ever read by their owner).  The graph topology itself is
metadata — the addresses it induces are what the memory system sees.

The same application object runs under three systems:

* DirNNB and Typhoon/Stache: transparent shared memory, barrier at each
  step's end;
* Typhoon with :class:`~repro.protocols.em3d_update.Em3dUpdateProtocol`:
  graph nodes go on custom pages, value fields are registered for
  delayed update, and the step barrier is replaced by
  ``flush_and_wait`` (plus one warm-up barrier after the first
  iteration's cold fetches).
"""

from __future__ import annotations

from array import array

from repro.apps.base import Application, AppContext, SharedArray
from repro.protocols.em3d_update import KIND_E, KIND_H, Em3dUpdateProtocol
from repro.sim.rng import RngStreams

#: Record layout: one graph node per 32-byte block.
NODE_BYTES = 32
VALUE_OFFSET = 0
#: Edge weights: one 8-byte double per edge, owner-local.
WEIGHT_BYTES = 8


class Em3dApplication(Application):
    """The EM3D kernel with a synthetic bipartite graph."""

    name = "em3d"

    def __init__(self, nodes_per_proc: int = 32, degree: int = 4,
                 remote_fraction: float = 0.2, iterations: int = 2,
                 seed: int = 11, prefetch: bool = False):
        self.nodes_per_proc = nodes_per_proc
        self.degree = degree
        self.remote_fraction = remote_fraction
        self.iterations = iterations
        self.seed = seed
        #: Issue non-binding prefetches one graph node ahead during each
        #: phase (requires the Stache protocol).  Hides fetch latency; the
        #: paper notes it "does not reduce the message traffic".
        self.prefetch = prefetch
        self._stache_protocol = None
        self.e_nodes: SharedArray | None = None
        self.h_nodes: SharedArray | None = None
        self.e_weights: SharedArray | None = None
        self.h_weights: SharedArray | None = None
        #: e_edges[i] = list of h-node indices feeding e-node i (and vice versa).
        self.e_edges: list[list[int]] = []
        self.h_edges: list[list[int]] = []
        self._update_protocol: Em3dUpdateProtocol | None = None

    # ------------------------------------------------------------------
    @property
    def total_nodes_per_kind(self) -> int:
        return self.nodes_per_proc * self._procs

    @property
    def edges_per_iteration(self) -> int:
        """Edges traversed per iteration (both phases) across the machine."""
        if not self.e_edges:
            return 0
        return sum(len(e) for e in self.e_edges) + sum(
            len(h) for h in self.h_edges
        )

    # ------------------------------------------------------------------
    def setup(self, machine, protocol=None) -> None:
        self._procs = machine.num_nodes
        total = self.total_nodes_per_kind
        use_update = isinstance(protocol, Em3dUpdateProtocol)
        self._update_protocol = protocol if use_update else None
        self._stache_protocol = (
            protocol if (self.prefetch and not use_update
                         and protocol is not None) else None
        )

        # Graph node arrays.  Under the update protocol the regions are
        # custom pages; otherwise plain Stache/DirNNB shared memory.
        node_protocol = None if use_update else protocol
        self.e_nodes = SharedArray(machine, node_protocol, total, NODE_BYTES,
                                   label="em3d.e")
        self.h_nodes = SharedArray(machine, node_protocol, total, NODE_BYTES,
                                   label="em3d.h")
        if use_update:
            for array, kind in ((self.e_nodes, KIND_E), (self.h_nodes, KIND_H)):
                for region in array.regions:
                    protocol.setup_custom_region(region, kind)

        # Owner-local weight arrays, one weight per edge.
        edges_per_proc = self.nodes_per_proc * self.degree
        self.e_weights = SharedArray(
            machine, protocol, edges_per_proc * self._procs, WEIGHT_BYTES,
            label="em3d.ew",
        )
        self.h_weights = SharedArray(
            machine, protocol, edges_per_proc * self._procs, WEIGHT_BYTES,
            label="em3d.hw",
        )

        self._build_graph(machine)
        self._init_values(machine, use_update, protocol)

    def _build_graph(self, machine) -> None:
        rng = RngStreams(self.seed).stream("em3d.graph")
        total = self.total_nodes_per_kind
        per = self.nodes_per_proc

        def neighbours(owner: int) -> list[int]:
            chosen = []
            for _ in range(self.degree):
                if self._procs > 1 and rng.random() < self.remote_fraction:
                    other = rng.randrange(self._procs - 1)
                    if other >= owner:
                        other += 1
                    base = other * per
                else:
                    base = owner * per
                chosen.append(base + rng.randrange(per))
            return chosen

        self.e_edges = [neighbours(i // per) for i in range(total)]
        self.h_edges = [neighbours(i // per) for i in range(total)]

    def _init_values(self, machine, use_update: bool, protocol) -> None:
        rng = RngStreams(self.seed).stream("em3d.values")
        for index in range(self.total_nodes_per_kind):
            self.poke(machine, self.e_nodes.addr(index, VALUE_OFFSET),
                      round(rng.uniform(-1, 1), 6))
            self.poke(machine, self.h_nodes.addr(index, VALUE_OFFSET),
                      round(rng.uniform(-1, 1), 6))
        for index in range(self.e_weights.count):
            self.poke(machine, self.e_weights.addr(index), 0.25)
            self.poke(machine, self.h_weights.addr(index), 0.25)
        if use_update:
            for array in (self.e_nodes, self.h_nodes):
                for index in range(array.count):
                    protocol.register_value_word(array.addr(index, VALUE_OFFSET))

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext):
        node_id = ctx.node_id
        update = self._update_protocol
        my_e = list(self.e_nodes.owned_range(node_id))
        my_h = list(self.h_nodes.owned_range(node_id))

        # Warm-up: touch every remote neighbour once, then synchronize.
        # This establishes the stached copies (and, under the update
        # protocol, the homes' copy lists) before any value is modified —
        # the initialization/inspection phase real EM3D codes run before
        # iterating.  It is identical under every protocol, so comparisons
        # remain apples to apples.
        touched = set()
        for index in my_e:
            for neighbour in self.e_edges[index]:
                touched.add(self.h_nodes.addr(neighbour, VALUE_OFFSET))
        for index in my_h:
            for neighbour in self.h_edges[index]:
                touched.add(self.e_nodes.addr(neighbour, VALUE_OFFSET))
        yield from ctx.read_run(sorted(touched))
        del touched  # kept alive by this frame otherwise
        yield from ctx.barrier()

        # Each phase's addresses, built once for every iteration.
        e_plan = self._phase_plan(my_e, self.e_nodes, self.h_nodes,
                                  self.e_edges, self.e_weights)
        h_plan = self._phase_plan(my_h, self.h_nodes, self.e_nodes,
                                  self.h_edges, self.h_weights)
        for step in range(self.iterations):
            # Phase 1: new E values from neighbouring H values.
            yield from self._phase(ctx, e_plan)
            if update is not None:
                yield from update.flush_and_wait(node_id, KIND_E, step)
            else:
                yield from ctx.barrier()
            # Phase 2: new H values from the new E values.
            yield from self._phase(ctx, h_plan)
            if update is not None:
                yield from update.flush_and_wait(node_id, KIND_H, step)
            else:
                yield from ctx.barrier()

    def _phase_plan(self, my_indices, out_array, in_array, edges, weights):
        """One phase's addresses, as machine words (a plan keeps no int
        objects alive): my graph nodes' values, and each node's edges as
        flattened (neighbour value, weight) pairs."""
        first = my_indices[0] * self.degree if my_indices else 0
        pairs = array("q")
        for slot, index in enumerate(my_indices):
            for weight, neighbour in enumerate(edges[index],
                                               first + slot * self.degree):
                pairs.extend((in_array.addr(neighbour, VALUE_OFFSET),
                              weights.addr(weight)))
        return (array("q", [out_array.addr(index, VALUE_OFFSET)
                            for index in my_indices]), pairs)

    def _phase(self, ctx: AppContext, plan):
        """One half-iteration: value -= sum(neighbour.value * weight)."""
        addrs, pairs = plan
        span = 2 * self.degree
        read = ctx.read
        for slot, addr in enumerate(addrs):
            edges = pairs[slot * span:(slot + 1) * span]
            if self._stache_protocol is not None and slot + 1 < len(addrs):
                # Software-pipelined prefetch of the *next* graph node's
                # neighbours, overlapping their fetch with this node's
                # arithmetic.
                for neighbour_addr in pairs[(slot + 1) * span:
                                            (slot + 2) * span:2]:
                    yield from self._stache_protocol.prefetch(
                        ctx.node_id, neighbour_addr)
            value = yield from read(addr)
            for edge in range(0, span, 2):
                # Two scalar reads: the references a two-element run
                # makes, without the run's bookkeeping.
                n_value = yield from read(edges[edge])
                weight = yield from read(edges[edge + 1])
                value -= n_value * weight
                yield from ctx.compute(flops=2, overhead=2)
            yield from ctx.write(addr, round(value, 9))

    # ------------------------------------------------------------------
    # Reference model for correctness checks
    # ------------------------------------------------------------------
    def reference_values(self) -> tuple[list[float], list[float]]:
        """Pure-Python execution of the same computation."""
        rng = RngStreams(self.seed).stream("em3d.values")
        total = self.total_nodes_per_kind
        e_values = []
        h_values = []
        for _ in range(total):
            e_values.append(round(rng.uniform(-1, 1), 6))
            h_values.append(round(rng.uniform(-1, 1), 6))
        for _ in range(self.iterations):
            for index in range(total):
                value = e_values[index]
                for neighbour in self.e_edges[index]:
                    value -= h_values[neighbour] * 0.25
                e_values[index] = round(value, 9)
            for index in range(total):
                value = h_values[index]
                for neighbour in self.h_edges[index]:
                    value -= e_values[neighbour] * 0.25
                h_values[index] = round(value, 9)
        return e_values, h_values
