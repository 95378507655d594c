"""DRAM buffer pool: LRU, pins, evictions, and the FaCE flag protocol."""

import pytest

from repro.buffer.frame import Frame
from repro.buffer.pool import BufferPool
from repro.db.page import Page
from repro.errors import (
    BufferError_,
    BufferFullError,
    ConfigError,
    ReproError,
    UnpinnedFrameError,
)


def page(pid: int) -> Page:
    return Page(pid, slots={0: ("r", pid)})


@pytest.fixture
def pool() -> BufferPool:
    return BufferPool(capacity=3)


def fill(pool: BufferPool, *pids: int):
    for pid in pids:
        pool.make_room()
        pool.admit(page(pid))


class TestLookupAndLru:
    def test_miss_then_hit_counted(self, pool):
        assert pool.lookup(1) is None
        fill(pool, 1)
        assert pool.lookup(1) is not None
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_lru_victim_is_least_recently_used(self, pool):
        fill(pool, 1, 2, 3)
        pool.lookup(1)  # 2 becomes LRU
        victim = pool.make_room()
        assert victim.page_id == 2

    def test_hit_sets_reference_bit(self, pool):
        fill(pool, 1)
        frame = pool.lookup(1)
        assert frame.referenced

    def test_peek_does_not_disturb_lru_or_stats(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1)
        assert pool.stats.hits == 0
        assert pool.make_room().page_id == 1


class TestAdmissionEviction:
    def test_admit_into_full_pool_is_error(self, pool):
        fill(pool, 1, 2, 3)
        with pytest.raises(BufferFullError):
            pool.admit(page(4))

    def test_duplicate_admit_rejected(self, pool):
        fill(pool, 1)
        with pytest.raises(ConfigError):
            pool.admit(page(1))

    def test_make_room_noop_when_space(self, pool):
        fill(pool, 1)
        assert pool.make_room() is None

    def test_pinned_frames_survive_eviction(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1).pin()
        victim = pool.make_room()
        assert victim.page_id == 2
        assert 1 in pool

    def test_all_pinned_raises(self, pool):
        fill(pool, 1, 2, 3)
        for pid in (1, 2, 3):
            pool.peek(pid).pin()
        with pytest.raises(BufferFullError):
            pool.make_room()

    def test_unpin_below_zero_raises(self, pool):
        # A library error (errors.py): a BufferError_, so a ReproError.
        fill(pool, 1)
        frame = pool.peek(1)
        frame.pin()
        frame.unpin()
        with pytest.raises(UnpinnedFrameError) as raised:
            frame.unpin()
        assert isinstance(raised.value, BufferError_)
        assert isinstance(raised.value, ReproError)
        assert frame.pin_count == 0

    def test_eviction_stats_split_clean_dirty(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1).dirty = True
        pool.make_room()  # evicts 1 (dirty)
        pool.admit(page(4))
        pool.make_room()  # evicts 2 (clean)
        assert pool.stats.dirty_evictions == 1
        assert pool.stats.clean_evictions == 1

    def test_fdirty_only_counts_as_dirty_eviction(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1).fdirty = True
        pool.make_room()
        assert pool.stats.dirty_evictions == 1


class TestPullTail:
    def test_pulls_from_lru_end(self, pool):
        fill(pool, 1, 2, 3)
        pulled = pool.pull_tail(2)
        assert [f.page_id for f in pulled] == [1, 2]
        assert len(pool) == 1

    def test_skips_pinned(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1).pin()
        pulled = pool.pull_tail(2)
        assert [f.page_id for f in pulled] == [2, 3]

    def test_short_pool_returns_fewer(self, pool):
        fill(pool, 1)
        assert len(pool.pull_tail(5)) == 1


class TestFlagProtocol:
    """The dirty/fdirty transitions of the paper's Algorithm 1."""

    def test_fetch_from_disk_clears_both(self):
        frame = Frame(page=page(1), dirty=True, fdirty=True)
        frame.on_fetch_from_disk()
        assert not frame.dirty and not frame.fdirty

    def test_update_sets_both(self):
        frame = Frame(page=page(1))
        frame.on_update()
        assert frame.dirty and frame.fdirty

    def test_fetch_from_flash_syncs_fdirty_preserves_disk_staleness(self):
        frame = Frame(page=page(1))
        frame.on_fetch_from_flash(flash_copy_dirty=True)
        assert frame.dirty  # disk copy may still be stale
        assert not frame.fdirty  # DRAM and flash are in sync
        frame.on_fetch_from_flash(flash_copy_dirty=False)
        assert not frame.dirty


class TestMisc:
    def test_dirty_frames_in_lru_order(self, pool):
        fill(pool, 1, 2, 3)
        pool.peek(1).dirty = True
        pool.peek(3).fdirty = True
        assert [f.page_id for f in pool.dirty_frames()] == [1, 3]

    def test_wipe_clears_contents_keeps_stats(self, pool):
        fill(pool, 1, 2)
        pool.lookup(1)
        pool.wipe()
        assert len(pool) == 0
        assert pool.stats.hits == 1

    def test_drop_without_eviction_count(self, pool):
        fill(pool, 1)
        pool.drop(1)
        assert pool.stats.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            BufferPool(0)

    def test_hit_rate(self, pool):
        fill(pool, 1)
        pool.lookup(1)  # hit
        pool.lookup(2)  # miss
        assert pool.stats.hit_rate == pytest.approx(0.5)
