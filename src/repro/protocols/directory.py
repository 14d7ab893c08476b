"""Directory entry structures.

Two encodings:

* :class:`HardwareDirectoryEntry` — DirNNB's full-map directory: no
  structural limit on sharers (Dir\\ :sub:`N`\\ NB = N pointers, no
  broadcast).  The map is one int, bit ``n`` set while node ``n`` may
  hold a read-only copy, as in hardware; the DirNNB controller works on
  the bits directly.
* :class:`SoftwareDirectoryEntry` — Stache's software directory
  (Section 3): 64 bits per block, laid out as two state bytes plus six
  one-byte node pointers "to minimize bitfield operations".  When more
  than six sharers exist, the first four pointer bytes become a 32-bit
  sharer bit vector; for machines larger than 32 nodes they instead hold
  a pointer to an auxiliary structure.  The class models those
  representation changes faithfully (and reports which one is active) so
  the encoding's capacity behaviour can be tested, while exposing a plain
  sharer-set API to the protocol.

Both expose the same surface to tests, verifiers and the protocol
explorer: ``state``, ``owner``, ``acks_outstanding``, ``add_sharer``,
``remove_sharer``, the ``sharers()`` view (a fresh set) and ``pending``,
the ``(requester, want_write)`` requests that arrived while the entry
was transient: the shared empty tuple until a site queues one by
rebinding it to a list (``[*pending, request]``, or ``[request,
*pending]`` for the request in flight, which leaves first by ``pop(0)``).
Most entries never queue one.  A run materializes one entry per block it
shares, so these sizes are the simulator's per-block memory
(docs/performance.md, "Per-block state").
"""

from __future__ import annotations

import enum


class DirectoryState(enum.Enum):
    """Stable block states as seen by the home directory."""

    HOME = "home"                # no remote copies; home may read/write
    SHARED = "shared"            # >=1 read-only copies (home readable)
    EXCLUSIVE = "exclusive"      # one remote owner holds it read-write
    # Transient states: a transaction is in flight for this block.
    PENDING_WRITEBACK = "pending-writeback"
    PENDING_INVALIDATE = "pending-invalidate"

    def __init__(self, value: str) -> None:
        #: A transaction is in flight: a plain attribute, since every
        #: request at the home tests it.
        self.is_transient = value.startswith("pending-")


def _observed(cls):
    """``cls`` with ``state`` behind a property that notifies the entry's
    ``_observer`` (the conformance monitor's hook).

    The observer runs *before* the assignment, so a strict monitor
    raising on an illegal transition leaves the entry unchanged.  The
    subclass adds no slot, so :meth:`ConformanceMonitor.watch_entry
    <repro.protocols.conformance.ConformanceMonitor.watch_entry>` can
    switch a live entry to it; unwatched entries keep ``state`` in a
    plain slot and pay for no property.
    """
    slot = cls.__dict__["state"]
    get, put = slot.__get__, slot.__set__

    class Observed(cls):
        __slots__ = ()

        @property
        def state(self) -> DirectoryState:
            return get(self)

        @state.setter
        def state(self, new: DirectoryState) -> None:
            self._observer(self, get(self), new)
            put(self, new)

    Observed.__name__ = Observed.__qualname__ = f"Observed{cls.__name__}"
    cls.observed = Observed
    return cls


@_observed
class HardwareDirectoryEntry:
    """Full-map entry: DirNNB's per-block directory state."""

    __slots__ = ("state", "owner", "sharer_bits", "pending",
                 "acks_outstanding", "_observer")

    def __init__(self) -> None:
        self.state = DirectoryState.HOME
        self.owner: int | None = None
        #: The full map: bit ``n`` is set while node ``n`` may hold a
        #: read-only copy.
        self.sharer_bits = 0
        #: Requests that arrived while the entry was transient.
        self.pending: list[tuple[int, bool]] | tuple = ()
        self.acks_outstanding = 0

    def add_sharer(self, node: int) -> None:
        self.sharer_bits |= 1 << node

    def remove_sharer(self, node: int) -> None:
        self.sharer_bits &= ~(1 << node)

    def sharers(self) -> set[int]:
        return set(nodes_in(self.sharer_bits))

    def __repr__(self) -> str:
        return (
            f"HardwareDirectoryEntry({self.state.value}, owner={self.owner}, "
            f"sharers={list(nodes_in(self.sharer_bits))})"
        )


def nodes_in(bits: int):
    """The nodes whose bits are set in ``bits``, in ascending order."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


POINTER_SLOTS = 6
BITVECTOR_LIMIT = 32


@_observed
class SoftwareDirectoryEntry:
    """The 64-bit LimitLESS-style software entry Stache allocates per block."""

    __slots__ = (
        "nodes",
        "state",
        "owner",
        "pending",
        "acks_outstanding",
        "_pointers",
        "_bitvector",
        "_aux",
        "_observer",
    )

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.state = DirectoryState.HOME
        self.owner: int | None = None
        self.pending: list[tuple[int, bool]] | tuple = ()
        self.acks_outstanding = 0
        self._pointers: list[int] = []
        self._bitvector: int | None = None
        self._aux: set[int] | None = None

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    @property
    def representation(self) -> str:
        if self._aux is not None:
            return "auxiliary"
        if self._bitvector is not None:
            return "bitvector"
        return "pointers"

    def _overflow(self) -> None:
        """Pointer slots exhausted: switch to bit vector or aux structure."""
        current = set(self._pointers)
        self._pointers = []
        if self.nodes <= BITVECTOR_LIMIT:
            self._bitvector = 0
            for node in current:
                self._bitvector |= 1 << node
        else:
            self._aux = current

    # ------------------------------------------------------------------
    # Sharer-set API
    # ------------------------------------------------------------------
    def add_sharer(self, node: int) -> None:
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} out of range")
        if self._aux is not None:
            self._aux.add(node)
            return
        if self._bitvector is not None:
            self._bitvector |= 1 << node
            return
        if node in self._pointers:
            return
        if len(self._pointers) >= POINTER_SLOTS:
            self._overflow()
            self.add_sharer(node)
            return
        self._pointers.append(node)

    def remove_sharer(self, node: int) -> None:
        if self._aux is not None:
            self._aux.discard(node)
        elif self._bitvector is not None:
            self._bitvector &= ~(1 << node)
        elif node in self._pointers:
            self._pointers.remove(node)

    def sharers(self) -> set[int]:
        if self._aux is not None:
            return set(self._aux)
        if self._bitvector is not None:
            return set(nodes_in(self._bitvector))
        return set(self._pointers)

    def clear_sharers(self) -> None:
        """All copies invalidated; fall back to the compact representation."""
        self._pointers = []
        self._bitvector = None
        self._aux = None

    @property
    def sharer_count(self) -> int:
        if self._aux is not None:
            return len(self._aux)
        if self._bitvector is not None:
            return self._bitvector.bit_count()
        return len(self._pointers)

    def __repr__(self) -> str:
        return (
            f"SoftwareDirectoryEntry({self.state.value}, owner={self.owner}, "
            f"{self.representation}, sharers={sorted(self.sharers())})"
        )
