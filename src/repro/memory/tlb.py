"""Fully-associative TLB with FIFO replacement (Table 2).

The TLB caches virtual page numbers.  A miss charges the configured
penalty (25 cycles) at the point of access; the CPU and the NP each have
one, and the NP additionally has a *reverse* TLB (see
:mod:`repro.typhoon.rtlb`) keyed by physical page.

Entries live in a plain insertion-ordered dict (the FIFO order is the
insertion order; hits never refresh position), so a probe is a single
dict membership test; the CPU's hit path and its batched lanes
(:mod:`repro.memory.lane`) test that dict directly.
"""

from __future__ import annotations

from repro.sim.config import TlbConfig


class Tlb:
    """Tracks which virtual pages are currently mapped by the hardware."""

    def __init__(self, config: TlbConfig, name: str = "tlb"):
        self.config = config
        self.name = name
        # Node models alias this dict (cleared in place, never reassigned).
        self._entries: dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def access(self, page_number: int) -> bool:
        """Probe for ``page_number``; a miss installs the entry (FIFO evict).

        Returns True on a hit.  FIFO means a hit does *not* refresh the
        entry's position, unlike LRU.
        """
        entries = self._entries
        if page_number in entries:
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.config.entries:
            oldest = next(iter(entries))
            del entries[oldest]
        entries[page_number] = None
        return False

    def evict(self, page_number: int) -> bool:
        """Shoot down one entry (page remap/unmap)."""
        return self._entries.pop(page_number, "absent") is None

    def flush(self) -> None:
        self._entries.clear()

    def __contains__(self, page_number: int) -> bool:
        return page_number in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Tlb({self.name}, {len(self)}/{self.config.entries})"
