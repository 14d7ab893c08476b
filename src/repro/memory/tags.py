"""Fine-grain access control: tagged memory blocks (paper Section 2.4).

Every aligned memory block carries an access tag:

* ``READ_WRITE`` — loads and stores complete normally;
* ``READ_ONLY``  — loads complete, stores fault;
* ``INVALID``    — loads and stores fault;
* ``BUSY``       — same access semantics as INVALID, but distinguishable
  by higher-level software (Typhoon's RTLB encodes it; protocols use it to
  mark blocks with a fetch in flight, e.g. prefetched blocks).

The nine Table 1 operations are implemented across two layers: this module
provides the tag array and the checked/unchecked access primitives; thread
suspension and handler dispatch (``read``/``write`` faulting and
``resume``) live in :mod:`repro.tempest.access` and
:mod:`repro.typhoon.np`, which own the threads and the hardware.

Tags exist only for pages registered with the store (the shared segment);
private memory is untagged and always accessible.

Internally each page's tags live in a dense ``bytearray`` of small
integer codes (the RTLB's two-bits-per-block array, widened to a byte),
so the per-reference :meth:`TagStore.check` is two indexed loads and an
integer compare; the :class:`Tag` enum appears only at the API boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.memory.address import AddressLayout


class Tag(enum.Enum):
    READ_WRITE = "ReadWrite"
    READ_ONLY = "ReadOnly"
    INVALID = "Invalid"
    BUSY = "Busy"

    #: The tag's dense code (below), set once per member.
    code: int

    def permits(self, is_write: bool) -> bool:
        if self is Tag.READ_WRITE:
            return True
        if self is Tag.READ_ONLY:
            return not is_write
        return False


#: Dense tag encoding: READ_WRITE=0 and READ_ONLY=1 so the permission
#: check is a compare against the access type (see :meth:`TagStore.check`).
TAG_READ_WRITE = 0
TAG_READ_ONLY = 1
TAG_INVALID = 2
TAG_BUSY = 3

_CODE_TAG = (Tag.READ_WRITE, Tag.READ_ONLY, Tag.INVALID, Tag.BUSY)
# Each tag carries its code as a plain attribute: a store reads
# ``tag.code`` instead of hashing the enum member (``Enum.__hash__`` is
# Python-level).
for _code, _tag in enumerate(_CODE_TAG):
    _tag.code = _code
del _code, _tag


@dataclass(frozen=True)
class AccessFault:
    """A block access fault: the information Typhoon's BAF buffer captures."""

    addr: int
    block_addr: int
    is_write: bool
    tag: Tag
    node: int

    @property
    def kind(self) -> str:
        access = "write" if self.is_write else "read"
        return f"{access}-{self.tag.value}"


class TagStoreError(RuntimeError):
    """Structural misuse: tagging unregistered pages, etc."""


class TagStore:
    """Per-node array of block access tags, organized by page."""

    def __init__(self, layout: AddressLayout, node: int = 0):
        self.layout = layout
        self.node = node
        #: Conformance hook: called ``observer(node, addr, old, new)`` on
        #: every :meth:`set_tag` (page registration resets bypass it).
        self.observer = None
        # page base address -> bytearray of tag codes, one per block.
        self._pages: dict[int, bytearray] = {}
        # Precomputed address arithmetic for the per-access tag check.
        self._page_mask = ~(layout.page_size - 1)
        self._page_low = layout.page_size - 1
        self._block_shift = layout.block_size.bit_length() - 1

    # ------------------------------------------------------------------
    # Page registration (called by the page table on map/unmap)
    # ------------------------------------------------------------------
    def register_page(self, page_addr: int, initial: Tag) -> None:
        page_addr = self.layout.page_of(page_addr)
        if page_addr in self._pages:
            raise TagStoreError(f"page {page_addr:#x} already registered")
        self._pages[page_addr] = bytearray(
            [initial.code] * self.layout.blocks_per_page
        )

    def drop_page(self, page_addr: int) -> None:
        page_addr = self.layout.page_of(page_addr)
        if page_addr not in self._pages:
            raise TagStoreError(f"page {page_addr:#x} not registered")
        del self._pages[page_addr]

    def has_page(self, page_addr: int) -> bool:
        return self.layout.page_of(page_addr) in self._pages

    # ------------------------------------------------------------------
    # Checked accesses (Table 1: read, write)
    # ------------------------------------------------------------------
    def check(self, addr: int, is_write: bool) -> AccessFault | None:
        """Tag-check an access; returns a fault record or None if permitted."""
        tags = self._pages.get(addr & self._page_mask)
        if tags is None:
            raise TagStoreError(
                f"no tags for unmapped page {addr & self._page_mask:#x}"
            )
        # Permitted iff code 0 (RW), or code 1 (RO) on a read: the code
        # just has to stay at or below 1 - is_write.
        code = tags[(addr & self._page_low) >> self._block_shift]
        if code == 0 or (code == 1 and not is_write):
            return None
        return AccessFault(
            addr=addr,
            block_addr=self.layout.block_of(addr),
            is_write=is_write,
            tag=_CODE_TAG[code],
            node=self.node,
        )

    # ------------------------------------------------------------------
    # Tag manipulation (Table 1: read-tag, set-RW, set-RO, invalidate)
    # ------------------------------------------------------------------
    def read_tag(self, addr: int) -> Tag:
        tags = self._pages.get(addr & self._page_mask)
        if tags is None:
            raise TagStoreError(
                f"no tags for unmapped page {addr & self._page_mask:#x}"
            )
        return _CODE_TAG[tags[(addr & self._page_low) >> self._block_shift]]

    def set_tag(self, addr: int, tag: Tag) -> None:
        tags = self._pages.get(addr & self._page_mask)
        if tags is None:
            raise TagStoreError(
                f"no tags for unmapped page {addr & self._page_mask:#x}"
            )
        index = (addr & self._page_low) >> self._block_shift
        observer = self.observer
        if observer is not None:
            observer(self.node, addr, _CODE_TAG[tags[index]], tag)
        tags[index] = tag.code

    def set_rw(self, addr: int) -> None:
        self.set_tag(addr, Tag.READ_WRITE)

    def set_ro(self, addr: int) -> None:
        self.set_tag(addr, Tag.READ_ONLY)

    def invalidate(self, addr: int) -> None:
        """Set INVALID.  Invalidating local hardware-cache copies is the
        caller's job (the NP issues the MBus invalidate; see
        :meth:`repro.typhoon.np.NetworkProcessor.op_invalidate`)."""
        self.set_tag(addr, Tag.INVALID)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def page_tags(self, page_addr: int) -> list[Tag]:
        page_addr = self.layout.page_of(page_addr)
        tags = self._pages.get(page_addr)
        if tags is None:
            raise TagStoreError(f"no tags for unmapped page {page_addr:#x}")
        return [_CODE_TAG[code] for code in tags]

    def counts(self) -> dict[Tag, int]:
        result = {tag: 0 for tag in Tag}
        for tags in self._pages.values():
            for code in tags:
                result[_CODE_TAG[code]] += 1
        return result

    def __repr__(self) -> str:
        return f"TagStore(node={self.node}, pages={len(self._pages)})"
