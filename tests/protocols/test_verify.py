"""Tests for the coherence verifier itself: does it catch corruption?

A checker that never fires is worthless; these tests inject each class of
violation into an otherwise healthy machine and assert detection.
"""

import pytest

from repro.memory.cache import LineState
from repro.memory.tags import Tag
from repro.protocols.directory import DirectoryState
from repro.protocols.verify import (
    CoherenceViolation,
    check_dirnnb_coherence,
    check_stache_coherence,
)
from tests.protocols.conftest import (
    make_dirnnb_machine,
    make_stache_machine,
    run_script,
)


def addr_homed_on(machine, region, home):
    for page in range(region.base, region.end, machine.layout.page_size):
        if machine.heap.home_of(page) == home:
            return page
    raise AssertionError


class TestStacheVerifier:
    def healthy(self):
        machine, protocol, region = make_stache_machine(nodes=3)
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("r", addr)], 2: [("r", addr)]})
        check_stache_coherence(machine, region)  # sanity: passes clean
        return machine, region, addr

    def test_detects_multiple_writers(self):
        machine, region, addr = self.healthy()
        machine.nodes[1].tags.set_rw(addr)
        machine.nodes[2].tags.set_rw(addr)
        with pytest.raises(CoherenceViolation, match="multiple writers"):
            check_stache_coherence(machine, region)

    def test_detects_writer_reader_coexistence(self):
        machine, region, addr = self.healthy()
        machine.nodes[1].tags.set_rw(addr)
        with pytest.raises(CoherenceViolation):
            check_stache_coherence(machine, region)

    def test_detects_reader_missing_from_directory(self):
        machine, region, addr = self.healthy()
        home_page = machine.nodes[0].tempest.page_entry(addr)
        entry = home_page.user_word[machine.layout.block_of(addr)]
        entry.remove_sharer(1)
        with pytest.raises(CoherenceViolation, match="sharer list"):
            check_stache_coherence(machine, region)

    def test_detects_diverged_reader_data(self):
        machine, region, addr = self.healthy()
        machine.nodes[2].image.write(addr, "corrupted")
        with pytest.raises(CoherenceViolation, match="data"):
            check_stache_coherence(machine, region)

    def test_detects_busy_tag_at_quiescence(self):
        machine, region, addr = self.healthy()
        machine.nodes[1].tags.set_tag(addr, Tag.BUSY)
        with pytest.raises(CoherenceViolation, match="Busy"):
            check_stache_coherence(machine, region)

    def test_detects_transient_directory_state(self):
        machine, region, addr = self.healthy()
        home_page = machine.nodes[0].tempest.page_entry(addr)
        entry = home_page.user_word[machine.layout.block_of(addr)]
        entry.state = DirectoryState.PENDING_INVALIDATE
        with pytest.raises(CoherenceViolation, match="transient"):
            check_stache_coherence(machine, region)

    def test_detects_wrong_owner(self):
        machine, protocol, region = make_stache_machine(nodes=3)
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("w", addr, 5)]})
        home_page = machine.nodes[0].tempest.page_entry(addr)
        entry = home_page.user_word[machine.layout.block_of(addr)]
        entry.owner = 2
        with pytest.raises(CoherenceViolation, match="owner"):
            check_stache_coherence(machine, region)


class TestDirNNBVerifier:
    def healthy(self):
        machine, region = make_dirnnb_machine(nodes=3)
        addr = addr_homed_on(machine, region, home=0)
        run_script(machine, {1: [("r", addr)], 2: [("r", addr)]})
        check_dirnnb_coherence(machine, region)
        return machine, region, addr

    def test_detects_multiple_owners(self):
        machine, region, addr = self.healthy()
        block = machine.layout.block_of(addr)
        machine.nodes[1].cache.insert(block, LineState.EXCLUSIVE)
        machine.nodes[2].cache.insert(block, LineState.EXCLUSIVE)
        with pytest.raises(CoherenceViolation, match="multiple owners"):
            check_dirnnb_coherence(machine, region)

    def test_detects_untracked_sharer(self):
        machine, region, addr = self.healthy()
        block = machine.layout.block_of(addr)
        entry = machine.nodes[0].directory.entries()[block]
        entry.remove_sharer(1)
        with pytest.raises(CoherenceViolation):
            check_dirnnb_coherence(machine, region)

    def test_detects_owner_sharer_coexistence(self):
        machine, region, addr = self.healthy()
        block = machine.layout.block_of(addr)
        machine.nodes[1].cache.insert(block, LineState.EXCLUSIVE)
        with pytest.raises(CoherenceViolation):
            check_dirnnb_coherence(machine, region)
