"""Machine and simulation configuration.

Defaults reproduce the paper's Table 2 ("Simulation parameters") exactly:

====================  =========================================
CPU cache             4-way assoc., random replacement
Block size            32 bytes
CPU TLB               64 entries, fully assoc., FIFO replacement
Page size             4 Kbytes
Local cache miss      29 cycles
Local writeback       0 cycles (perfect write buffer)
TLB miss              25 cycles
Network latency       11 cycles
Barrier latency       11 cycles
====================  =========================================

DirNNB-only and Typhoon-only parameters follow the corresponding Table 2
sections.  The NP handler instruction counts come from Section 6's measured
path lengths ("the NP executes only 14 instructions to request a missing
block, 30 instructions for the remote node to respond with the data, and 20
instructions when the data arrives"); counts for paths the paper does not
quote are calibrated estimates documented per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


#: Largest machine the simulator builds.  Far above any experiment (64
#: nodes at most), and low enough that a mistyped count fails at once
#: instead of allocating a million nodes.
MAX_NODES = 1024


class ConfigError(ValueError):
    """A configuration that describes no buildable machine."""


@dataclass
class CacheConfig:
    """A set-associative cache (the CPU's hardware cache)."""

    size_bytes: int = 256 * 1024
    associativity: int = 4
    block_size: int = 32
    replacement: str = "random"

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return max(1, self.num_blocks // self.associativity)

    def validate(self) -> None:
        if self.block_size < 1 or self.associativity < 1:
            raise ConfigError(
                "cache block size and associativity must be positive")
        if self.size_bytes % self.block_size:
            raise ConfigError(
                "cache size must be a multiple of the block size")
        if self.block_size & (self.block_size - 1):
            raise ConfigError("block size must be a power of two")
        if self.size_bytes < self.associativity * self.block_size:
            raise ConfigError(
                f"cache size {self.size_bytes} is smaller than one set "
                f"({self.associativity} x {self.block_size}-byte blocks)")
        if self.num_blocks % self.associativity:
            raise ConfigError(
                "cache size must be a whole number of sets "
                f"({self.associativity} x {self.block_size}-byte blocks)")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError("number of sets must be a power of two")
        if self.replacement not in ("random", "lru", "fifo"):
            raise ConfigError(
                f"unknown replacement policy {self.replacement!r}")


@dataclass
class TlbConfig:
    """Fully-associative TLB with FIFO replacement (Table 2)."""

    entries: int = 64
    replacement: str = "fifo"
    miss_cycles: int = 25

    def validate(self) -> None:
        if self.entries < 1:
            raise ConfigError(f"a TLB needs an entry, got {self.entries}")
        if self.miss_cycles < 0:
            raise ConfigError(
                f"TLB miss cycles must not be negative, got "
                f"{self.miss_cycles}")


@dataclass
class NetworkConfig:
    """Point-to-point interconnect parameters (Table 2).

    ``topology`` selects the hop model: ``"ideal"`` charges the flat
    ``latency`` for every packet (the paper's model); ``"mesh2d"`` charges
    per-hop latency on a 2-D mesh (an ablation, Section 5's network is
    CM-5-like but the paper models only a constant).
    """

    latency: int = 11
    barrier_latency: int = 11
    topology: str = "ideal"
    mesh_per_hop: int = 2
    max_payload_words: int = 20  # Typhoon packets: twenty 32-bit words.
    # The paper's simulations "do not accurately model network ...
    # contention"; neither do we by default.  True serializes each
    # (src, dst, vnet) channel at one word per cycle (an ablation).
    model_contention: bool = False

    def validate(self) -> None:
        if min(self.latency, self.barrier_latency, self.mesh_per_hop) < 0:
            raise ConfigError("network latencies must not be negative")
        if self.topology not in ("ideal", "mesh2d"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.max_payload_words < 1:
            raise ConfigError("a packet must carry at least one word")


@dataclass
class DirNNBCosts:
    """Cost model for the all-hardware DirNNB system (Table 2, DirNNB Only).

    Remote cache miss: ``23 + (5..16 if replacement) + network/directory
    cost + 34`` cycles.  Remote cache invalidate: ``8 + (5..16 if
    replacement)``.  Directory op: ``16 + 11 if block received + 5 per
    message sent + 11 if block sent``.
    """

    remote_miss_issue: int = 23
    remote_miss_finish: int = 34
    replacement_shared: int = 5
    replacement_exclusive: int = 16
    invalidate_base: int = 8
    directory_op: int = 16
    directory_block_received: int = 11
    directory_per_message: int = 5
    directory_block_sent: int = 11


@dataclass
class TyphoonCosts:
    """Cost model for the Typhoon NP (Table 2, Typhoon Only + Section 6).

    The NP executes one cycle per instruction (paper: "we approximated
    ... by charging a single cycle for each instruction").  The three
    quoted best-case handler path lengths are taken verbatim; the
    remaining handler costs are calibrated estimates scaled from those
    (each documented below), kept deliberately on the conservative
    (larger) side so Typhoon is not flattered.
    """

    cycles_per_instruction: int = 1
    np_tlb_entries: int = 64
    np_tlb_miss: int = 25
    rtlb_entries: int = 64
    rtlb_miss: int = 25
    np_dcache_bytes: int = 16 * 1024
    np_icache_bytes: int = 8 * 1024

    # Section 5.1's deadlock-avoidance plumbing: each virtual network's
    # send queue holds this many packets; further sends are transparently
    # redirected to the (unbounded) user overflow buffer, which software
    # drains as queue space frees up.  Guarantees any handler runs to
    # completion without waiting for queue space.
    send_queue_depth: int = 16
    # Cycles to drain one overflowed packet back into the send queue.
    overflow_drain_cycles: int = 4

    # Paper-quoted best-case path lengths (Section 6).
    miss_request_instructions: int = 14
    home_response_instructions: int = 30
    data_arrival_instructions: int = 20

    # Calibrated estimates for paths the paper does not quote:
    # an invalidation received at a caching node (tag flip + ack send) is
    # comparable to the miss-request path.
    invalidate_handler_instructions: int = 15
    # an invalidation-ack received at home (directory pointer clear,
    # possibly forwarding queued data) is comparable to a home response.
    ack_handler_instructions: int = 25
    # writing back a dirty block to home on replacement: pack block + send.
    writeback_handler_instructions: int = 25
    # the Stache user-level page fault handler: allocate + map + init tags.
    page_fault_instructions: int = 250
    # page replacement: per-block invalidate sweep is charged separately;
    # this is the fixed remap cost.
    page_replace_instructions: int = 150
    # marginal cost of composing and launching one additional message from
    # inside a handler (e.g. each extra invalidation a home handler sends);
    # matches DirNNB's 5-cycles-per-message directory charge.
    per_message_instructions: int = 5
    # detecting a block access fault on the bus and dispatching the handler
    # (hardware-assisted dispatch; RTLB lookup + BAF buffer fill).
    baf_dispatch_cycles: int = 5
    # bus round trip for the NP to touch local DRAM on behalf of a handler
    # (force-read/force-write of a 32-byte block over the MBus).
    np_block_copy_cycles: int = 10


@dataclass
class BlizzardCosts:
    """Cost model for the all-software Tempest backend (no NP).

    Models the "native version for the CM-5" direction of Section 2: a
    commodity message-passing node where fine-grain access control is
    synthesized in software (Blizzard-style) and protocol handlers run on
    the primary CPU at poll points.

    Defaults follow the Blizzard-E approach: read checks ride on the
    ECC/sentinel trick (free on the hit path), write checks cost a few
    instructions of inserted code, and the network is polled at every
    shared-memory reference.

    The handler path-length fields share their *names* with
    :class:`TyphoonCosts` but **not** their values.  Typhoon's quoted
    counts (14/30/20...) assume the NP's hardware assists: tags live in
    the RTLB and flip in one touch, message bodies sit in mapped
    registers, and the block-access fault arrives pre-decoded.  A
    software Tempest gets none of that — every handler manipulates an
    in-memory tag table (load, mask, store per block), marshals message
    bodies through memory, and decodes faults itself — so each path
    carries a per-field-documented software surcharge over the Typhoon
    count.  (Until ISSUE 10 these fields *did* mirror Typhoon verbatim,
    which made Blizzard a relabeled twin; the de-mirrored estimates
    below are what moved the ``blizzard`` goldens.)  The fields exist
    here so a Blizzard machine resolves its costs from its *own*
    section — retuning ``config.blizzard`` affects Blizzard runs and
    leaves Typhoon runs alone (see
    :class:`repro.tempest.port.CostDomain`).
    """

    #: Inserted-code cost per checked load (0 = the ECC/sentinel trick).
    check_read_cycles: int = 0
    #: Inserted-code cost per checked store (explicit table lookup).
    check_write_cycles: int = 3
    #: Cost of one empty network poll (inserted at each shared access).
    poll_cycles: int = 1
    #: Extra dispatch cost when a poll finds a message (no hardware assist).
    software_dispatch_cycles: int = 20
    #: The CPU cannot overlap handler work with computation: every handler
    #: instruction is charged to the computation thread at this CPI.
    cycles_per_instruction: int = 1

    # Protocol handler path lengths: Typhoon's count plus the software
    # surcharge for doing in software what the NP does in hardware.
    #: 14 + ~8 (software tag-table update + marshalling the request
    #: body through memory instead of mapped registers).
    miss_request_instructions: int = 22
    #: 30 + ~16 (directory lookup and sharer-list walk against in-memory
    #: structures, block copy staged through a bounce buffer).
    home_response_instructions: int = 46
    #: 20 + ~12 (tag flip is a table read-modify-write per block, and
    #: the arrived body is copied out of the receive buffer).
    data_arrival_instructions: int = 32
    #: 15 + ~9 (tag downgrade in the table + software ack compose).
    invalidate_handler_instructions: int = 24
    #: 25 + ~13 (pointer clear and possible forward against in-memory
    #: directory state).
    ack_handler_instructions: int = 38
    #: 25 + ~15 (pack the dirty block through memory + table downgrade).
    writeback_handler_instructions: int = 40
    #: 250 + ~70 (allocate + map as on Typhoon, then *initialize the
    #: access-control table entries* for every block of the page —
    #: Typhoon's RTLB fill does this in hardware).
    page_fault_instructions: int = 320
    #: 150 + ~50 (fixed remap cost plus tearing down the page's table
    #: entries in software).
    page_replace_instructions: int = 200
    #: 5 + ~3 (each extra message composed through memory).
    per_message_instructions: int = 8
    #: Copying a block to/from local DRAM costs the same bus round trip
    #: whether the CPU or an NP issues it.
    block_copy_cycles: int = 10


@dataclass
class DecoupledCosts:
    """Cost model for the decoupled software-handler backend.

    The middle point of the paper's design space (the direction later
    realized as Typhoon-0/Typhoon-1): a commodity dual-processor node
    where fine-grain access control is synthesized in software exactly
    as on Blizzard (inserted checks before shared stores, the
    ECC/sentinel trick for loads), but protocol handlers run on a
    *second* CPU executing a software dispatch loop that polls an inbox
    — concurrent with computation, like Typhoon's NP, yet with no
    hardware dispatch assist.

    Consequences, relative to the neighbours:

    * versus Blizzard — no inserted network poll on the compute CPU
      (the handler processor watches the network), and handler
      instructions overlap computation instead of stealing it;
    * versus Typhoon — every dispatch pays the polling loop's notice
      latency plus a software dispatch sequence instead of the NP's
      hardware-assisted ``baf_dispatch_cycles``, and the handler path
      lengths carry the same software surcharges as
      :class:`BlizzardCosts` (same software protocol library, same
      in-memory tag tables and message marshalling).

    That yields the three distinct cost points ISSUE 10 asks for:
    typhoon < decoupled < blizzard on handler-dispatch overhead.
    """

    #: Inserted-code cost per checked load (0 = the ECC/sentinel trick).
    check_read_cycles: int = 0
    #: Inserted-code cost per checked store (explicit table lookup).
    check_write_cycles: int = 3
    #: Latency for the handler processor's polling loop to notice newly
    #: queued work (re-reading the inbox head between work items).
    poll_notice_cycles: int = 2
    #: Software dispatch sequence per work item: read the descriptor,
    #: index the handler table, indirect call.  No hardware assist, but
    #: the loop is hot and resident on its own CPU, so it undercuts
    #: Blizzard's ``software_dispatch_cycles`` (which also pays to
    #: interrupt computation).
    dispatch_cycles: int = 8
    #: The handler processor executes one cycle per instruction, on its
    #: own timeline — handler work overlaps computation.
    cycles_per_instruction: int = 1

    # Protocol handler path lengths: identical to the de-mirrored
    # BlizzardCosts estimates — the handler processor runs the same
    # software protocol library against the same in-memory tag tables;
    # only *who* runs it (and at what dispatch overhead) differs.
    miss_request_instructions: int = 22
    home_response_instructions: int = 46
    data_arrival_instructions: int = 32
    invalidate_handler_instructions: int = 24
    ack_handler_instructions: int = 38
    writeback_handler_instructions: int = 40
    page_fault_instructions: int = 320
    page_replace_instructions: int = 200
    per_message_instructions: int = 8
    #: Same bus round trip for a block copy as on the other backends.
    block_copy_cycles: int = 10


@dataclass
class MachineConfig:
    """Complete description of one simulated target machine."""

    nodes: int = 32
    cache: CacheConfig = field(default_factory=CacheConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    dirnnb: DirNNBCosts = field(default_factory=DirNNBCosts)
    typhoon: TyphoonCosts = field(default_factory=TyphoonCosts)
    decoupled: DecoupledCosts = field(default_factory=DecoupledCosts)
    blizzard: BlizzardCosts = field(default_factory=BlizzardCosts)

    block_size: int = 32
    page_size: int = 4096
    local_miss_cycles: int = 29
    local_writeback_cycles: int = 0  # perfect write buffer (Table 2)
    cache_hit_cycles: int = 1

    # How many pages of local DRAM each node may devote to stached remote
    # data before FIFO page replacement kicks in.  The paper lets the
    # application choose; 4096 pages (16 MB) is effectively unbounded for
    # the scaled workloads and can be lowered to exercise replacement.
    stache_page_budget: int = 4096

    # DirNNB page placement: "round_robin" (IVY-style fixed distributed
    # manager, the paper's default) or "first_touch" (the Stenstrom et al.
    # improvement discussed in Section 6).
    page_placement: str = "round_robin"

    seed: int = 42

    def validate(self) -> None:
        if self.block_size < 1 or self.page_size < 1:
            raise ConfigError("block and page sizes must be positive")
        if min(self.cache_hit_cycles, self.local_miss_cycles) < 0:
            raise ConfigError("access cycle costs must not be negative")
        self.cache.validate()
        self.tlb.validate()
        self.network.validate()
        if self.nodes < 1:
            raise ConfigError("need at least one node")
        if self.nodes > MAX_NODES:
            raise ConfigError(
                f"at most {MAX_NODES} nodes, got {self.nodes}")
        if self.page_size % self.block_size:
            raise ConfigError(
                "page size must be a multiple of the block size")
        if self.cache.block_size != self.block_size:
            raise ConfigError(
                "cache block size must match machine block size")
        if self.page_placement not in ("round_robin", "first_touch"):
            raise ConfigError(
                f"unknown page placement {self.page_placement!r}")

    @property
    def blocks_per_page(self) -> int:
        return self.page_size // self.block_size

    def with_cache_size(self, size_bytes: int) -> "MachineConfig":
        """A copy of this configuration with a different CPU cache size."""
        return replace(self, cache=replace(self.cache, size_bytes=size_bytes))


# Paper cache sizes swept in Figure 3, smallest to largest.
FIGURE3_CACHE_SIZES = (4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024)


@dataclass(frozen=True)
class ScaleModel:
    """Maps the paper's data-set / cache pairs to CPython-feasible sizes.

    Figure 3's independent variable is really the *ratio* of an
    application's working set to the CPU cache size: the small data sets
    were chosen to be "scaled for a 4 Kbyte cache" and to fit entirely in
    the larger caches.  Scaling the data set and the cache by the same
    factor preserves that ratio, which is the paper's own methodological
    argument (Gupta et al. [13]).

    ``scale`` multiplies data-set sizes; cache sizes shrink by the same
    factor (never below ``min_cache_bytes`` so associativity structure
    survives).
    """

    scale: float = 1.0
    min_cache_bytes: int = 512
    block_size: int = 32

    def cache_bytes(self, paper_bytes: int) -> int:
        scaled = int(paper_bytes * self.scale)
        # Round down to a power of two so the set count stays a power of two.
        size = self.min_cache_bytes
        while size * 2 <= max(scaled, self.min_cache_bytes):
            size *= 2
        return size

    def count(self, paper_count: int, minimum: int = 1) -> int:
        return max(minimum, int(round(paper_count * self.scale)))
