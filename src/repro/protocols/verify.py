"""Coherence-invariant checking.

These checks run at quiescence (no messages in flight, no handler
running) and assert the invariants that make a protocol a protocol:

* **Single writer**: at most one node holds a writable copy of a block,
  and then no other node holds any copy.
* **Directory accuracy**: the home's directory state matches the copies
  that actually exist.  Stache's sharer lists may be a *superset* of the
  actual read-only copy holders (replacement of clean copies is silent by
  design), but never a subset; owners are always exact.
* **Data coherence**: every read-only copy's data equals the home's data
  (an invalidation protocol never lets readable copies diverge).

The test suite calls these after every property-based run; users can call
them after their own simulations as a sanity net.
"""

from __future__ import annotations

from repro.memory.allocator import SharedRegion
from repro.memory.cache import LineState
from repro.memory.tags import Tag
from repro.protocols.directory import DirectoryState
from repro.protocols.stache import PAGE_MODE_HOME


class CoherenceViolation(AssertionError):
    """An invariant does not hold; the message pinpoints block and nodes."""


def check_stache_coherence(machine, region: SharedRegion) -> None:
    """Verify Stache invariants for every block of ``region`` at quiescence."""
    layout = machine.layout
    for page_addr in range(region.base, region.end, layout.page_size):
        home_id = machine.heap.home_of(page_addr)
        home = machine.nodes[home_id]
        home_page = home.tempest.page_entry(page_addr)
        if home_page is None or home_page.mode != PAGE_MODE_HOME:
            raise CoherenceViolation(
                f"home page {page_addr:#x} missing on node {home_id}"
            )
        directory = home_page.user_word
        for block in layout.blocks_in_page(page_addr):
            _check_stache_block(machine, block, home_id, directory.get(block))


def _collect_tags(machine, block: int) -> dict[int, Tag]:
    """Tag per node for nodes that have the block's page mapped."""
    tags = {}
    for node in machine.nodes:
        if node.page_table.is_mapped(block):
            tags[node.node_id] = node.tags.read_tag(block)
    return tags


def _check_stache_block(machine, block: int, home_id: int, entry) -> None:
    tags = _collect_tags(machine, block)
    writers = [n for n, tag in tags.items() if tag is Tag.READ_WRITE]
    readers = [n for n, tag in tags.items() if tag is Tag.READ_ONLY]
    busy = [n for n, tag in tags.items() if tag is Tag.BUSY]

    if busy:
        raise CoherenceViolation(
            f"block {block:#x}: Busy tags at quiescence on nodes {busy}"
        )
    if len(writers) > 1:
        raise CoherenceViolation(
            f"block {block:#x}: multiple writers {writers}"
        )
    if writers and readers:
        raise CoherenceViolation(
            f"block {block:#x}: writer {writers} coexists with readers {readers}"
        )

    state = entry.state if entry is not None else DirectoryState.HOME
    owner = entry.owner if entry is not None else None
    sharers = entry.sharers() if entry is not None else set()

    if state.is_transient:
        raise CoherenceViolation(
            f"block {block:#x}: transient directory state {state} at quiescence"
        )
    if state is DirectoryState.EXCLUSIVE:
        if writers != [owner]:
            raise CoherenceViolation(
                f"block {block:#x}: directory owner {owner} but writers {writers}"
            )
        if tags.get(home_id) is not Tag.INVALID:
            raise CoherenceViolation(
                f"block {block:#x}: remote-exclusive but home tag is "
                f"{tags.get(home_id)}"
            )
    else:
        remote_writers = [n for n in writers if n != home_id]
        if remote_writers:
            raise CoherenceViolation(
                f"block {block:#x}: writers {remote_writers} but directory "
                f"state {state}"
            )
        # Silent clean replacement means sharer lists may be stale
        # supersets, never subsets.
        remote_readers = {n for n in readers if n != home_id}
        if not remote_readers <= sharers:
            raise CoherenceViolation(
                f"block {block:#x}: readers {remote_readers} not all in "
                f"directory sharer list {sorted(sharers)}"
            )
        # Data: every read-only copy matches the home copy.
        home_data = machine.nodes[home_id].image.export_block(block)
        for reader in remote_readers:
            copy = machine.nodes[reader].image.export_block(block)
            if copy != home_data:
                raise CoherenceViolation(
                    f"block {block:#x}: reader {reader} data {copy} != "
                    f"home data {home_data}"
                )


def check_dirnnb_coherence(machine, region: SharedRegion) -> None:
    """Verify DirNNB invariants for every block of ``region`` at quiescence."""
    layout = machine.layout
    for page_addr in range(region.base, region.end, layout.page_size):
        for block in layout.blocks_in_page(page_addr):
            _check_dirnnb_block(machine, block)


def _check_dirnnb_block(machine, block: int) -> None:
    home_id = machine.home_of(block)
    entry = machine.nodes[home_id].directory.entries().get(block)
    lines = {}
    for node in machine.nodes:
        line = node.cache.lookup(block)
        if line is not None:
            lines[node.node_id] = line.state

    owners = [n for n, s in lines.items() if s is LineState.EXCLUSIVE]
    sharers_actual = {n for n, s in lines.items() if s is LineState.SHARED}

    if len(owners) > 1:
        raise CoherenceViolation(f"block {block:#x}: multiple owners {owners}")
    if owners and sharers_actual:
        raise CoherenceViolation(
            f"block {block:#x}: owner {owners} coexists with sharers "
            f"{sorted(sharers_actual)}"
        )

    if entry is None:
        if lines:
            raise CoherenceViolation(
                f"block {block:#x}: cached copies {lines} with no directory entry"
            )
        return
    if entry.state.is_transient:
        raise CoherenceViolation(
            f"block {block:#x}: transient state {entry.state} at quiescence"
        )
    if entry.state is DirectoryState.EXCLUSIVE:
        if owners != [entry.owner]:
            raise CoherenceViolation(
                f"block {block:#x}: directory owner {entry.owner} but "
                f"cache owners {owners}"
            )
    else:
        if owners:
            raise CoherenceViolation(
                f"block {block:#x}: owners {owners} in state {entry.state}"
            )
        sharers = entry.sharers()
        if not sharers_actual <= sharers:
            raise CoherenceViolation(
                f"block {block:#x}: cached sharers {sorted(sharers_actual)} "
                f"not in directory {sorted(sharers)}"
            )
