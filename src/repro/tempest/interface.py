"""The Tempest facade: one object per node exposing the four mechanisms.

Protocol libraries (Stache, the EM3D update protocol, user code) see only
this class.  The hardware behind it is a :class:`TempestBackend` — in this
package that is a Typhoon node, but nothing in :mod:`repro.protocols`
depends on Typhoon, mirroring the paper's portability claim.

The checked ``read``/``write`` operations of Table 1 are the CPU's own
loads and stores (they happen in the node model when application code
issues accesses); everything else in Table 1, plus messaging, bulk
transfer, and VM management, is here.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.memory.address import AddressLayout
from repro.memory.allocator import GlobalHeap
from repro.memory.data import MemoryImage
from repro.memory.page_table import PageEntry, PageTable
from repro.memory.tags import Tag, TagStore
from repro.network.message import Message, VirtualNetwork
from repro.sim.engine import Engine
from repro.sim.process import Future
from repro.sim.stats import Stats
from repro.tempest.messaging import HandlerRegistry
from repro.tempest.threads import ComputationThread


@runtime_checkable
class TempestBackend(Protocol):
    """What the hardware must supply for Tempest to run on it."""

    node_id: int
    engine: Engine
    stats: Stats
    layout: AddressLayout
    registry: HandlerRegistry
    tags: TagStore
    page_table: PageTable
    image: MemoryImage
    thread: ComputationThread
    heap: GlobalHeap
    written_blocks: set
    after_access: list

    @property
    def num_nodes(self) -> int: ...

    def send_message(self, message: Message) -> None: ...

    def invalidate_cpu_copy(self, block_addr: int) -> None: ...

    def downgrade_cpu_copy(self, block_addr: int) -> None: ...

    def shoot_down_page(self, vaddr: int) -> None: ...

    def np_charge(self, cycles: int) -> None: ...


class Tempest:
    """User-level interface to one node's communication and memory system."""

    def __init__(self, backend: TempestBackend):
        from repro.tempest.bulk import BulkTransferEngine

        self._backend = backend
        # Identity handles, bound once: these backend attributes are fixed
        # for the machine's lifetime, and protocol handlers read them on
        # every dispatch, so plain attributes beat properties.
        self.node_id: int = backend.node_id
        self.num_nodes: int = backend.num_nodes
        self.layout: AddressLayout = backend.layout
        self.engine: Engine = backend.engine
        self.stats: Stats = backend.stats
        self.image: MemoryImage = backend.image
        self._tags = backend.tags
        self._send_message = backend.send_message
        self._np_charge = backend.np_charge
        # Eager: every node must have the bulk receive handlers installed
        # before any peer can target it with a transfer.
        self._bulk_engine = BulkTransferEngine(backend)

    # ------------------------------------------------------------------
    # Mechanism 1: low-overhead messages (Section 2.1)
    # ------------------------------------------------------------------
    def register_handler(self, name: str, fn: Callable[..., Any],
                         instructions: int) -> None:
        """Install an active-message / fault handler on this node.

        ``instructions`` is the handler's path length; the NP charges one
        cycle per instruction when it runs (Section 6).
        """
        self._backend.registry.register(name, fn, instructions)

    def send(
        self,
        dst: int,
        handler: str,
        vnet: VirtualNetwork = VirtualNetwork.REQUEST,
        size_words: int = 3,
        **payload: Any,
    ) -> None:
        """Send an active message; the handler runs on ``dst``'s NP."""
        self._send_message(
            Message(
                src=self.node_id,
                dst=dst,
                handler=handler,
                vnet=vnet,
                size_words=size_words,
                payload=payload,
            )
        )

    # ------------------------------------------------------------------
    # Mechanism 2: bulk data transfer (Section 2.2)
    # ------------------------------------------------------------------
    def bulk_transfer(self, dst: int, src_vaddr: int, dst_vaddr: int,
                      nbytes: int) -> Future:
        """Asynchronous bulk copy to another node; resolves on completion."""
        return self._bulk_engine.start(dst, src_vaddr, dst_vaddr, nbytes)

    # ------------------------------------------------------------------
    # Mechanism 3: virtual-memory management (Section 2.3)
    # ------------------------------------------------------------------
    def map_page(self, vaddr: int, mode: int, home: int, initial_tag: Tag,
                 user_word: Any = None) -> PageEntry:
        """Allocate physical memory and map it at ``vaddr`` (page aligned)."""
        return self._backend.page_table.map_page(
            vaddr, mode=mode, home=home, initial_tag=initial_tag,
            user_word=user_word,
        )

    def unmap_page(self, vaddr: int) -> PageEntry:
        entry = self._backend.page_table.unmap_page(vaddr)
        self._backend.shoot_down_page(vaddr)
        return entry

    def remap_page(self, old_vaddr: int, new_vaddr: int,
                   initial_tag: Tag) -> PageEntry:
        entry = self._backend.page_table.remap_page(old_vaddr, new_vaddr,
                                                    initial_tag)
        # The translation hardware must not keep serving the old page:
        # shoot the entry out of the CPU TLB and the NP's reverse TLB.
        self._backend.shoot_down_page(old_vaddr)
        return entry

    def page_entry(self, vaddr: int) -> PageEntry | None:
        return self._backend.page_table.lookup(vaddr)

    def oldest_page_with_mode(self, mode: int) -> PageEntry | None:
        return self._backend.page_table.oldest_page_with_mode(mode)

    def pages_with_mode(self, mode: int) -> list[PageEntry]:
        return self._backend.page_table.pages_with_mode(mode)

    def home_of(self, addr: int) -> int:
        """Consult the distributed page-home mapping table."""
        return self._backend.heap.home_of(addr)

    # ------------------------------------------------------------------
    # Mechanism 4: fine-grain access control (Section 2.4 / Table 1)
    # ------------------------------------------------------------------
    def read_tag(self, addr: int) -> Tag:
        return self._tags.read_tag(addr)

    def set_rw(self, addr: int) -> None:
        self._tags.set_rw(addr)

    def set_ro(self, addr: int) -> None:
        """Downgrade to ReadOnly; the CPU's cached copy loses ownership."""
        self._tags.set_ro(addr)
        self._backend.downgrade_cpu_copy(self.layout.block_of(addr))

    def set_busy(self, addr: int) -> None:
        self._tags.set_tag(addr, Tag.BUSY)

    def invalidate(self, addr: int) -> None:
        """Table 1 ``invalidate``: set Invalid *and* invalidate local copies."""
        self._tags.invalidate(addr)
        self._backend.invalidate_cpu_copy(self.layout.block_of(addr))

    def force_read(self, addr: int) -> Any:
        """Load without tag check (NP accesses bypass the RTLB check)."""
        return self.image.read(addr)

    def force_write(self, addr: int, value: Any) -> None:
        """Store without tag check."""
        self.image.write(addr, value)

    def export_block(self, block_addr: int) -> dict[int, Any]:
        """Force-read a whole block (for building data-carrying messages)."""
        return self.image.export_block(block_addr)

    def import_block(self, block_addr: int, payload: dict[int, Any]) -> None:
        """Force-write a whole block (message handlers filling stache pages)."""
        self.image.import_block(block_addr, payload)

    def was_written(self, addr: int) -> bool:
        """Has this node stored to the block since it last gained it?

        The M-vs-E distinction of an ownership bus, exposed to protocol
        handlers (migratory-detection probes use it).
        """
        block = self._backend.layout.block_of(addr)
        return block in self._backend.written_blocks

    def resume(self, value: Any = None) -> None:
        """Table 1 ``resume``: restart this node's suspended thread."""
        self._backend.thread.resume(value)

    def after_access(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the computation thread's current access
        completes: for a suspended thread, the access ``resume`` lets
        retry.  A handler defers work with it that must not pre-empt
        the access it just enabled."""
        self._backend.after_access.append(callback)

    # ------------------------------------------------------------------
    # Handler-side cost accounting
    # ------------------------------------------------------------------
    def charge(self, cycles: int) -> None:
        """Extend the running handler's NP occupancy by ``cycles``.

        For data-dependent handler work (e.g. one pointer update per
        sharer) beyond the registered fixed path length.
        """
        self._np_charge(cycles)

    def __repr__(self) -> str:
        return f"Tempest(node={self.node_id}/{self.num_nodes})"
