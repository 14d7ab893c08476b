"""Address arithmetic and the shared address-space layout.

The paper's memory model (Section 2.3) is a conventional flat, paged
address space per node, with a large user-reserved *shared heap segment*
whose semantics are supplied by user-level code.  We fix the layout:

* addresses below ``SHARED_BASE`` are node-private (text, stack, private
  heap) — accesses to them never involve the coherence machinery;
* addresses at or above ``SHARED_BASE`` belong to the shared segment.

All quantities are byte addresses.  Blocks are the fine-grain access
control unit (32 bytes by default, Table 2); pages are the virtual-memory
unit (4 KB).
"""

from __future__ import annotations

from dataclasses import dataclass


class AddressSpaceError(ValueError):
    """Raised for malformed addresses or misaligned regions."""


#: Start of the user-reserved shared heap segment.
SHARED_BASE = 0x1000_0000


@dataclass(frozen=True)
class AddressLayout:
    """Block/page arithmetic for one machine configuration."""

    block_size: int = 32
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.block_size & (self.block_size - 1):
            raise AddressSpaceError("block size must be a power of two")
        if self.page_size & (self.page_size - 1):
            raise AddressSpaceError("page size must be a power of two")
        if self.page_size % self.block_size:
            raise AddressSpaceError("page size must be a multiple of block size")

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        """Block-aligned base address containing ``addr``."""
        return addr & ~(self.block_size - 1)

    def block_offset(self, addr: int) -> int:
        return addr & (self.block_size - 1)

    def block_index_in_page(self, addr: int) -> int:
        """Index of the block within its page (0 .. blocks_per_page - 1)."""
        return (addr & (self.page_size - 1)) >> self.block_size.bit_length() - 1

    # ------------------------------------------------------------------
    # Pages
    # ------------------------------------------------------------------
    def page_of(self, addr: int) -> int:
        """Page-aligned base address containing ``addr``."""
        return addr & ~(self.page_size - 1)

    def page_number(self, addr: int) -> int:
        return addr >> (self.page_size.bit_length() - 1)

    @property
    def blocks_per_page(self) -> int:
        return self.page_size // self.block_size

    def blocks_in_page(self, page_addr: int):
        """Iterate block base addresses of the page at ``page_addr``."""
        base = self.page_of(page_addr)
        for index in range(self.blocks_per_page):
            yield base + index * self.block_size

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    @staticmethod
    def is_shared(addr: int) -> bool:
        return addr >= SHARED_BASE

    def validate(self, addr: int) -> None:
        if addr < 0:
            raise AddressSpaceError(f"negative address {addr:#x}")
