"""Tests for fine-grain access tags — the mechanism behind Table 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.tags import (
    TAG_BUSY,
    TAG_INVALID,
    TAG_READ_ONLY,
    TAG_READ_WRITE,
    Tag,
    TagStore,
    TagStoreError,
)

PAGE = SHARED_BASE  # a page-aligned shared address


@pytest.fixture
def store():
    store = TagStore(AddressLayout(), node=3)
    store.register_page(PAGE, Tag.INVALID)
    return store


class TestTagSemantics:
    """The access matrix of Section 2.4."""

    def test_read_write_tag_permits_everything(self):
        assert Tag.READ_WRITE.permits(is_write=False)
        assert Tag.READ_WRITE.permits(is_write=True)

    def test_read_only_tag_permits_reads_only(self):
        assert Tag.READ_ONLY.permits(is_write=False)
        assert not Tag.READ_ONLY.permits(is_write=True)

    def test_invalid_tag_permits_nothing(self):
        assert not Tag.INVALID.permits(is_write=False)
        assert not Tag.INVALID.permits(is_write=True)

    def test_busy_behaves_like_invalid_for_accesses(self):
        assert not Tag.BUSY.permits(is_write=False)
        assert not Tag.BUSY.permits(is_write=True)


class TestCheckedAccess:
    def test_read_on_invalid_block_faults(self, store):
        fault = store.check(PAGE + 40, is_write=False)
        assert fault is not None
        assert fault.addr == PAGE + 40
        assert fault.block_addr == PAGE + 32
        assert fault.tag is Tag.INVALID
        assert fault.is_write is False
        assert fault.node == 3

    def test_write_on_read_only_block_faults(self, store):
        store.set_ro(PAGE)
        assert store.check(PAGE, is_write=False) is None
        fault = store.check(PAGE, is_write=True)
        assert fault is not None
        assert fault.kind == "write-ReadOnly"

    def test_read_write_block_never_faults(self, store):
        store.set_rw(PAGE + 64)
        assert store.check(PAGE + 64, is_write=False) is None
        assert store.check(PAGE + 64, is_write=True) is None

    def test_tags_are_per_block_not_per_page(self, store):
        store.set_rw(PAGE)
        assert store.check(PAGE + 16, is_write=True) is None  # same block
        assert store.check(PAGE + 32, is_write=False) is not None  # next block


class TestTagOperations:
    """Table 1: read-tag, set-RW, set-RO, invalidate."""

    def test_read_tag(self, store):
        assert store.read_tag(PAGE) is Tag.INVALID
        store.set_rw(PAGE)
        assert store.read_tag(PAGE) is Tag.READ_WRITE

    def test_set_ro(self, store):
        store.set_ro(PAGE + 32)
        assert store.read_tag(PAGE + 32) is Tag.READ_ONLY

    def test_invalidate(self, store):
        store.set_rw(PAGE)
        store.invalidate(PAGE)
        assert store.read_tag(PAGE) is Tag.INVALID

    def test_busy_round_trip(self, store):
        store.set_tag(PAGE, Tag.BUSY)
        assert store.read_tag(PAGE) is Tag.BUSY
        fault = store.check(PAGE, is_write=False)
        assert fault.tag is Tag.BUSY

    @pytest.mark.parametrize("tag", list(Tag))
    def test_every_tag_round_trips_with_its_dense_code(self, store, tag):
        """A store writes ``tag.code`` (no enum hashing): the code is the
        tag's dense encoding, and reading it back gives the same member."""
        assert tag.code == (TAG_READ_WRITE, TAG_READ_ONLY, TAG_INVALID,
                            TAG_BUSY)[list(Tag).index(tag)]
        store.set_tag(PAGE + 64, tag)
        assert store.read_tag(PAGE + 64) is tag
        assert store._pages[PAGE][2] == tag.code
        # The neighbours keep the page's initial tag.
        assert store.read_tag(PAGE + 32) is Tag.INVALID
        assert store.read_tag(PAGE + 96) is Tag.INVALID
        assert ((store.check(PAGE + 64, is_write=False) is None)
                == tag.permits(is_write=False))

    @pytest.mark.parametrize("tag", list(Tag))
    def test_every_tag_registers_a_page_with_its_code(self, tag):
        store = TagStore(AddressLayout(), node=0)
        store.register_page(PAGE, tag)
        assert store.page_tags(PAGE) == [tag] * 128

    def test_observer_fires_on_every_set(self, store):
        seen = []
        store.observer = lambda *args: seen.append(args)
        store.set_rw(PAGE)
        store.set_ro(PAGE + 32)
        store.set_tag(PAGE + 32, Tag.BUSY)
        store.invalidate(PAGE)
        assert seen == [
            (3, PAGE, Tag.INVALID, Tag.READ_WRITE),
            (3, PAGE + 32, Tag.INVALID, Tag.READ_ONLY),
            (3, PAGE + 32, Tag.READ_ONLY, Tag.BUSY),
            (3, PAGE, Tag.READ_WRITE, Tag.INVALID),
        ]
        # The observer runs before the store: one that raises leaves
        # the tag unchanged.
        store.observer = lambda *args: (_ for _ in ()).throw(ValueError())
        with pytest.raises(ValueError):
            store.set_rw(PAGE)
        assert store.read_tag(PAGE) is Tag.INVALID


class TestPageRegistration:
    def test_initial_tag_applies_to_all_blocks(self, store):
        layout = store.layout
        for block in layout.blocks_in_page(PAGE):
            assert store.read_tag(block) is Tag.INVALID

    def test_access_to_unregistered_page_is_structural_error(self, store):
        with pytest.raises(TagStoreError):
            store.check(PAGE + 4096, is_write=False)

    def test_double_registration_rejected(self, store):
        with pytest.raises(TagStoreError):
            store.register_page(PAGE, Tag.READ_WRITE)

    def test_drop_page(self, store):
        store.drop_page(PAGE)
        assert not store.has_page(PAGE)
        with pytest.raises(TagStoreError):
            store.read_tag(PAGE)

    def test_drop_unregistered_page_rejected(self, store):
        with pytest.raises(TagStoreError):
            store.drop_page(PAGE + 4096)

    def test_counts(self, store):
        store.set_rw(PAGE)
        store.set_ro(PAGE + 32)
        counts = store.counts()
        assert counts[Tag.READ_WRITE] == 1
        assert counts[Tag.READ_ONLY] == 1
        assert counts[Tag.INVALID] == 126

    def test_page_tags_snapshot_is_a_copy(self, store):
        snapshot = store.page_tags(PAGE)
        snapshot[0] = Tag.READ_WRITE
        assert store.read_tag(PAGE) is Tag.INVALID


TAGS = st.sampled_from(list(Tag))


@given(st.lists(st.tuples(st.integers(0, 127), TAGS), max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_last_set_tag_wins(ops):
    """The tag of a block is exactly the last tag stored to it."""
    store = TagStore(AddressLayout())
    store.register_page(PAGE, Tag.INVALID)
    last: dict[int, Tag] = {}
    for block_index, tag in ops:
        addr = PAGE + block_index * 32
        store.set_tag(addr, tag)
        last[block_index] = tag
    for block_index in range(128):
        expected = last.get(block_index, Tag.INVALID)
        assert store.read_tag(PAGE + block_index * 32) is expected


@given(st.integers(0, 4095), st.booleans(), TAGS)
@settings(max_examples=100, deadline=None)
def test_property_check_agrees_with_permits(offset, is_write, tag):
    """check() faults exactly when the tag does not permit the access."""
    store = TagStore(AddressLayout())
    store.register_page(PAGE, tag)
    fault = store.check(PAGE + offset, is_write)
    assert (fault is None) == tag.permits(is_write)
