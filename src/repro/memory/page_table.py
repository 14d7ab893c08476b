"""Per-node page tables and user-level virtual-memory management.

Tempest (Section 2.3) lets user-level code allocate physical pages at
specified virtual addresses in the shared segment, remap or unmap them,
and handle faults on unmapped pages.  This module is the mechanism; the
user-visible calls are in :mod:`repro.tempest.vmm`.

A page entry records:

* ``mode`` — a small integer the protocol uses to select fault handlers
  (Typhoon's RTLB "page mode", Section 5.4); Stache uses HOME and STACHE,
  the EM3D protocol adds custom modes;
* ``home`` — the owning node's id (part of the RTLB's uninterpreted
  per-page state in hardware; kept explicit here);
* ``user_word`` — an uninterpreted user pointer (Stache home pages point
  it at their per-block directory vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.memory.address import AddressLayout
from repro.memory.tags import Tag, TagStore


class PageTableError(RuntimeError):
    """Mapping misuse: double map, unmap of absent page, etc."""


@dataclass
class PageEntry:
    """One mapped virtual page on one node."""

    vpage: int
    mode: int
    home: int
    user_word: Any = None
    writable: bool = True
    fifo_order: int = field(default=0, compare=False)


class PageTable:
    """Virtual page mappings for one node, tied to that node's tag store."""

    def __init__(self, layout: AddressLayout, tags: TagStore, node: int = 0):
        self.layout = layout
        self.tags = tags
        self.node = node
        self._entries: dict[int, PageEntry] = {}
        # ``page_of`` as a mask: handlers look pages up on every message.
        self._page_mask = ~(layout.page_size - 1)
        self._map_counter = 0
        self.maps = 0
        self.unmaps = 0

    # ------------------------------------------------------------------
    def map_page(
        self,
        vaddr: int,
        mode: int,
        home: int,
        initial_tag: Tag,
        user_word: Any = None,
        writable: bool = True,
    ) -> PageEntry:
        """Allocate-and-map a physical page at ``vaddr`` (page aligned)."""
        vpage = self.layout.page_of(vaddr)
        if vpage in self._entries:
            raise PageTableError(f"page {vpage:#x} already mapped on node {self.node}")
        self._map_counter += 1
        entry = PageEntry(
            vpage=vpage,
            mode=mode,
            home=home,
            user_word=user_word,
            writable=writable,
            fifo_order=self._map_counter,
        )
        self._entries[vpage] = entry
        self.tags.register_page(vpage, initial_tag)
        self.maps += 1
        return entry

    def unmap_page(self, vaddr: int) -> PageEntry:
        """Unmap and free the page; its tags are dropped with it."""
        vpage = self.layout.page_of(vaddr)
        entry = self._entries.pop(vpage, None)
        if entry is None:
            raise PageTableError(f"page {vpage:#x} not mapped on node {self.node}")
        self.tags.drop_page(vpage)
        self.unmaps += 1
        return entry

    def remap_page(self, old_vaddr: int, new_vaddr: int, initial_tag: Tag) -> PageEntry:
        """Move a physical page to a new virtual address (Stache page reuse).

        The old mapping disappears; the new one starts with fresh tags.
        """
        old_entry = self.unmap_page(old_vaddr)
        return self.map_page(
            new_vaddr,
            mode=old_entry.mode,
            home=old_entry.home,
            initial_tag=initial_tag,
            user_word=old_entry.user_word,
            writable=old_entry.writable,
        )

    # ------------------------------------------------------------------
    def lookup(self, vaddr: int) -> PageEntry | None:
        return self._entries.get(vaddr & self._page_mask)

    def is_mapped(self, vaddr: int) -> bool:
        return vaddr & self._page_mask in self._entries

    def mapped_pages(self) -> list[PageEntry]:
        return list(self._entries.values())

    def pages_with_mode(self, mode: int) -> list[PageEntry]:
        return [entry for entry in self._entries.values() if entry.mode == mode]

    def oldest_page_with_mode(self, mode: int) -> PageEntry | None:
        """FIFO replacement candidate (Stache's policy, Section 3)."""
        candidates = self.pages_with_mode(mode)
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.fifo_order)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"PageTable(node={self.node}, pages={len(self)})"
