"""The Tempest facade's bound Table 1 operations.

``page_entry``, ``read_tag``, ``set_rw``, ``charge``, ``force_read``/
``force_write``, ``export_block``/``import_block`` and ``resume`` are
bound once, at construction, to the node's page table, tag store, memory
image, handler processor and computation thread.  These tests pin that every change made to those
containers after binding — by the facade or behind its back — shows
through the bound operations, on every Tempest backend.
"""

import pytest

from repro.blizzard.system import BlizzardMachine
from repro.decoupled.system import DecoupledMachine
from repro.memory.address import SHARED_BASE
from repro.memory.tags import Tag
from repro.sim.config import MachineConfig
from repro.tempest.interface import Tempest
from repro.typhoon.system import TyphoonMachine

PAGE = 4096
ADDR = SHARED_BASE + 3 * PAGE
OTHER = SHARED_BASE + 7 * PAGE

BOUND = ("page_entry", "read_tag", "set_rw", "charge", "force_read",
         "force_write", "export_block", "import_block", "resume")


@pytest.fixture(params=["typhoon", "blizzard", "decoupled"])
def machine(request):
    cls = {"typhoon": TyphoonMachine, "blizzard": BlizzardMachine,
           "decoupled": DecoupledMachine}[request.param]
    return cls(MachineConfig(nodes=2, seed=3))


def test_operations_are_bound_not_forwarded(machine):
    tempest = machine.tempests[1]
    node = machine.nodes[1]
    for name in BOUND:
        assert not hasattr(Tempest, name), name
        assert name in vars(tempest), name
    assert tempest.page_entry.__self__ is node.page_table
    assert tempest.read_tag.__self__ is node.tags
    assert tempest.set_rw.__self__ is node.tags
    assert tempest.force_read.__self__ is node.image
    assert tempest.import_block.__self__ is node.image
    assert tempest.charge == node.np.charge
    assert tempest.resume.__self__ is node.thread


def test_page_entry_sees_map_unmap_and_remap(machine):
    tempest = machine.tempests[1]
    node = machine.nodes[1]
    assert tempest.page_entry(ADDR) is None
    tempest.map_page(ADDR, mode=5, home=0, initial_tag=Tag.INVALID)
    entry = tempest.page_entry(ADDR + 40)
    assert (entry.mode, entry.home) == (5, 0)
    tempest.remap_page(ADDR, OTHER, initial_tag=Tag.READ_ONLY)
    assert tempest.page_entry(ADDR) is None
    assert tempest.page_entry(OTHER + PAGE - 1).mode == 5
    # Behind the facade's back: the page table itself.
    node.page_table.unmap_page(OTHER)
    assert tempest.page_entry(OTHER) is None
    node.page_table.map_page(ADDR, mode=6, home=1, initial_tag=Tag.BUSY)
    assert tempest.page_entry(ADDR).mode == 6


def test_tag_operations_see_every_change(machine):
    tempest = machine.tempests[1]
    node = machine.nodes[1]
    tempest.map_page(ADDR, mode=5, home=0, initial_tag=Tag.INVALID)
    assert tempest.read_tag(ADDR) is Tag.INVALID
    tempest.set_rw(ADDR)
    assert tempest.read_tag(ADDR + 31) is Tag.READ_WRITE
    tempest.set_ro(ADDR)
    assert tempest.read_tag(ADDR) is Tag.READ_ONLY
    tempest.set_busy(ADDR)
    assert tempest.read_tag(ADDR) is Tag.BUSY
    node.tags.set_tag(ADDR, Tag.READ_WRITE)
    assert tempest.read_tag(ADDR) is Tag.READ_WRITE
    tempest.invalidate(ADDR)
    assert node.tags.read_tag(ADDR) is Tag.INVALID
    # A remapped page starts with fresh tags, seen through the binding.
    tempest.remap_page(ADDR, OTHER, initial_tag=Tag.READ_ONLY)
    assert tempest.read_tag(OTHER) is Tag.READ_ONLY
    tempest.set_rw(OTHER + 64)
    assert node.tags.read_tag(OTHER + 64) is Tag.READ_WRITE


def test_image_operations_see_every_change(machine):
    tempest = machine.tempests[1]
    image = machine.nodes[1].image
    assert tempest.force_read(ADDR) == 0
    image.write(ADDR + 8, "behind")
    assert tempest.force_read(ADDR + 8) == "behind"
    tempest.force_write(ADDR + 16, "front")
    assert image.read(ADDR + 16) == "front"
    assert tempest.export_block(ADDR) == {8: "behind", 16: "front"}
    tempest.import_block(ADDR, {0: 1})
    assert image.read(ADDR + 8) == 0 and image.read(ADDR) == 1
    image.import_block(ADDR, {24: 2})
    assert tempest.export_block(ADDR) == {24: 2}
    image.clear_page(ADDR)
    assert tempest.export_block(ADDR) == {}

