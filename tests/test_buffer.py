"""Tests for the buffer pool: caching, pinning, eviction, writeback."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager


def make_pool(capacity=4, page_size=128):
    disk = InMemoryDiskManager(page_size)
    return disk, BufferPool(disk, capacity=capacity)


class TestBasics:
    def test_new_page_is_pinned_and_dirty(self):
        __, pool = make_pool()
        frame = pool.new_page()
        assert frame.pin_count == 1
        assert frame.dirty

    def test_fetch_hit_does_not_touch_disk(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        pool.unpin(frame.page_id)
        before = disk.stats.page_reads
        pool.fetch(frame.page_id)
        assert disk.stats.page_reads == before
        assert pool.stats.hits == 1

    def test_fetch_miss_reads_from_disk(self):
        disk, pool = make_pool(capacity=1)
        first = pool.new_page()
        pool.unpin(first.page_id, dirty=True)
        second = pool.new_page()  # evicts first
        pool.unpin(second.page_id, dirty=True)
        pool.fetch(first.page_id)
        assert pool.stats.misses == 1
        assert disk.stats.page_reads == 1

    def test_dirty_eviction_writes_back(self):
        disk, pool = make_pool(capacity=1)
        frame = pool.new_page()
        frame.data[0] = 0xEE
        pool.unpin(frame.page_id, dirty=True)
        other = pool.new_page()  # forces eviction of the dirty frame
        pool.unpin(other.page_id)
        assert disk.read_page(frame.page_id)[0] == 0xEE
        assert pool.stats.dirty_writebacks == 1

    def test_pinned_frames_never_evicted(self):
        __, pool = make_pool(capacity=2)
        first = pool.new_page()  # stays pinned
        second = pool.new_page()
        pool.unpin(second.page_id)
        third = pool.new_page()  # must evict `second`, not `first`
        assert first.page_id in pool._frames
        assert second.page_id not in pool._frames
        assert third.page_id in pool._frames

    def test_all_pinned_raises(self):
        __, pool = make_pool(capacity=2)
        pool.new_page()
        pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.new_page()

    def test_unpin_errors(self):
        __, pool = make_pool()
        with pytest.raises(BufferPoolError):
            pool.unpin(99)
        frame = pool.new_page()
        pool.unpin(frame.page_id)
        with pytest.raises(BufferPoolError):
            pool.unpin(frame.page_id)

    def test_flush_all_clears_dirty(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        frame.data[:2] = b"ok"
        pool.unpin(frame.page_id, dirty=True)
        pool.flush_all()
        assert disk.read_page(frame.page_id)[:2] == b"ok"
        assert not pool._frames[frame.page_id].dirty

    def test_drop_all_requires_unpinned(self):
        __, pool = make_pool()
        frame = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.drop_all()
        pool.unpin(frame.page_id)
        pool.drop_all()
        assert len(pool) == 0

    def test_free_page_drops_cached_frame(self):
        disk, pool = make_pool()
        frame = pool.new_page()
        frame.data[0] = 0xAA
        pool.unpin(frame.page_id, dirty=True)
        pool.free_page(frame.page_id)  # no writeback: data is dead
        assert frame.page_id not in pool._frames
        assert disk.num_free_pages == 1

    def test_free_pinned_page_rejected(self):
        __, pool = make_pool()
        frame = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.free_page(frame.page_id)

    def test_invalid_configuration(self):
        disk = InMemoryDiskManager(128)
        with pytest.raises(BufferPoolError):
            BufferPool(disk, capacity=0)

    def test_memory_bytes(self):
        __, pool = make_pool(capacity=4, page_size=128)
        frame = pool.new_page()
        pool.unpin(frame.page_id)
        assert pool.memory_bytes == pool.disk.payload_size


class TestPolicies:
    def test_capacity_never_exceeded(self):
        __, pool = make_pool(capacity=3)
        for __ in range(10):
            frame = pool.new_page()
            pool.unpin(frame.page_id)
        assert len(pool) <= 3

    def test_data_survives_eviction_cycles(self):
        disk, pool = make_pool(capacity=3)
        rng = random.Random(7)
        page_ids = []
        for value in range(8):
            frame = pool.new_page()
            frame.data[0] = value
            pool.unpin(frame.page_id, dirty=True)
            page_ids.append(frame.page_id)
        for __ in range(100):
            page_id = rng.choice(page_ids)
            frame = pool.fetch(page_id)
            pool.unpin(page_id)
            assert frame.data[0] == page_id

    def test_lru_evicts_least_recent(self):
        __, pool = make_pool(capacity=2)
        a = pool.new_page()
        pool.unpin(a.page_id)
        b = pool.new_page()
        pool.unpin(b.page_id)
        pool.fetch(a.page_id)  # a becomes most recent
        pool.unpin(a.page_id)
        c = pool.new_page()  # should evict b
        pool.unpin(c.page_id)
        assert a.page_id in pool._frames
        assert b.page_id not in pool._frames


@settings(max_examples=25, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 255)), min_size=1, max_size=60
    ),
    capacity=st.integers(min_value=2, max_value=5),
)
def test_pool_never_loses_committed_writes(operations, capacity):
    """Property: reads through the pool always see the latest write."""
    disk = InMemoryDiskManager(128)
    pool = BufferPool(disk, capacity=capacity)
    for __ in range(10):
        frame = pool.new_page()
        pool.unpin(frame.page_id, dirty=True)
    expected = {page_id: 0 for page_id in range(10)}
    for page_id, value in operations:
        frame = pool.fetch(page_id)
        frame.data[0] = value
        pool.unpin(page_id, dirty=True)
        expected[page_id] = value
    for page_id, value in expected.items():
        frame = pool.fetch(page_id)
        assert frame.data[0] == value
        pool.unpin(page_id)
    pool.flush_all()
    for page_id, value in expected.items():
        assert disk.read_page(page_id)[0] == value
