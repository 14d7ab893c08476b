"""Set-associative cache model (tags and states only, no data array).

The CPU hardware cache of Table 2: 4-way set-associative with random
replacement and 32-byte blocks.  The model tracks which blocks are present
and in what state; the data itself lives in the per-node memory image (see
:mod:`repro.typhoon.node`), because the simulator only needs data values to
*verify* coherence, not to hit in the right level.

States model an ownership-based coherent bus (MBus-like):

* ``SHARED`` — clean, possibly other caches hold it, read hits only;
* ``EXCLUSIVE`` — owned, dirty-able, read and write hits;
* lines are simply absent when invalid.

Replacement victim selection is deterministic given the machine seed
(random replacement per Table 2, drawn from a named RNG stream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from repro.sim.config import CacheConfig


class LineState(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass(slots=True)
class CacheLine:
    """One resident block (slotted: one per resident line of every cache)."""

    block_addr: int
    state: LineState
    fifo_order: int = 0


class Cache:
    """Tag/state array for one set-associative cache."""

    def __init__(self, config: CacheConfig, rng: Random, name: str = "cache"):
        config.validate()
        self.config = config
        self.name = name
        self._rng = rng
        # The CPU's hit path aliases this list and probes its set dicts
        # (cleared in place, never reassigned).
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
        self._set_mask = config.num_sets - 1
        self._block_shift = config.block_size.bit_length() - 1
        self._insert_counter = 0
        # Counters maintained locally; the node model publishes them.
        self.hits = 0
        self.misses = 0
        self.upgrades = 0
        self.replacements = 0

    # ------------------------------------------------------------------
    # Lookup.  Every method finds the block's set inline, in one
    # indexing step: they run on every fill, downgrade and invalidation.
    # ------------------------------------------------------------------
    def lookup(self, block_addr: int) -> CacheLine | None:
        """Return the resident line for ``block_addr`` or None."""
        return self._sets[
            (block_addr >> self._block_shift) & self._set_mask
        ].get(block_addr)

    def access(self, block_addr: int, is_write: bool) -> bool:
        """Probe for a hit; maintains hit/miss/upgrade counters.

        Returns True on a hit that needs no coherence action.  A write to
        a SHARED line is a miss (an upgrade): the caller must obtain
        ownership through the protocol.
        """
        line = self._sets[
            (block_addr >> self._block_shift) & self._set_mask
        ].get(block_addr)
        if line is None:
            self.misses += 1
            return False
        if is_write and line.state is LineState.SHARED:
            self.upgrades += 1
            self.misses += 1
            return False
        self.hits += 1
        return True

    def contains(self, block_addr: int) -> bool:
        return self.lookup(block_addr) is not None

    # ------------------------------------------------------------------
    # Fill / invalidate
    # ------------------------------------------------------------------
    def insert(self, block_addr: int, state: LineState) -> CacheLine | None:
        """Install a block; returns the victim line if one was evicted.

        If the block is already resident its state is updated in place
        (e.g. SHARED -> EXCLUSIVE on an upgrade fill) and no victim is
        produced.
        """
        cache_set = self._sets[
            (block_addr >> self._block_shift) & self._set_mask]
        existing = cache_set.get(block_addr)
        if existing is not None:
            existing.state = state
            return None
        victim = None
        if len(cache_set) >= self.config.associativity:
            victim = self._choose_victim(cache_set)
            del cache_set[victim.block_addr]
            self.replacements += 1
        self._insert_counter += 1
        cache_set[block_addr] = CacheLine(
            block_addr, state, fifo_order=self._insert_counter
        )
        return victim

    def _choose_victim(self, cache_set: dict[int, CacheLine]) -> CacheLine:
        lines = list(cache_set.values())
        policy = self.config.replacement
        if policy == "random":
            return self._rng.choice(lines)
        if policy == "fifo":
            return min(lines, key=lambda line: line.fifo_order)
        # "lru" degenerates to fifo-order here because access recency is
        # not tracked; Table 2's CPU cache is random anyway.
        return min(lines, key=lambda line: line.fifo_order)

    def invalidate(self, block_addr: int) -> CacheLine | None:
        """Drop a block (coherence invalidation); returns the line if present."""
        return self._sets[
            (block_addr >> self._block_shift) & self._set_mask
        ].pop(block_addr, None)

    def downgrade(self, block_addr: int) -> bool:
        """EXCLUSIVE -> SHARED (remote read of an owned block)."""
        line = self._sets[
            (block_addr >> self._block_shift) & self._set_mask
        ].get(block_addr)
        if line is None:
            return False
        line.state = LineState.SHARED
        return True

    # ------------------------------------------------------------------
    def resident_blocks(self) -> list[int]:
        """All resident block addresses (diagnostics and invariant checks)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.config.size_bytes}B, "
            f"{len(self)} resident)"
        )
