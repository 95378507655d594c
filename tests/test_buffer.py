"""DRAM buffer pool: LRU, evictions, and the FaCE flag protocol."""

import pytest

from repro.buffer.pool import BufferPool
from repro.core.config import CachePolicy
from repro.db.page import Page
from repro.errors import BufferFullError, ConfigError
from tests.conftest import frame_of, kv_dbms_with, kv_read, kv_write, push_out_of_dram


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

    def test_hit_sets_reference_bit(self):
        # Only CLOCK's sweep reads the bit, so only a CLOCK pool sets it.
        clock = BufferPool(capacity=3, policy="clock")
        fill(clock, 1)
        assert not clock.peek(1).referenced
        assert clock.lookup(1).referenced

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
        assert [f.page_id for f in pool.frames()] == [3]

    def test_short_pool_returns_fewer(self, pool):
        fill(pool, 1)
        assert len(pool.pull_tail(5)) == 1


class TestFlagProtocol:
    """The dirty/fdirty transitions of the paper's Algorithm 1, as the
    engine's read and logged-update paths set them on a FaCE system."""

    def test_fetch_from_disk_clears_both(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        page_id = dbms.index_lookup("kv_pk", (0,))[0]
        assert page_id not in dbms.cache.directory.valid_pos
        kv_read(dbms, 0)
        frame = frame_of(dbms, 0)
        assert not frame.dirty and not frame.fdirty

    def test_update_sets_both(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_read(dbms, 0)
        kv_write(dbms, 0, "updated")
        frame = frame_of(dbms, 0)
        assert frame.dirty and frame.fdirty

    def test_fetch_from_flash_syncs_fdirty_preserves_disk_staleness(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 0, "updated")  # key 0's page: dirty in flash
        kv_read(dbms, 63)  # key 63's page: clean in flash
        push_out_of_dram(dbms, 0, 63)
        kv_read(dbms, 0)
        frame = frame_of(dbms, 0)
        assert frame.dirty  # disk copy is still stale
        assert not frame.fdirty  # DRAM and flash are in sync
        kv_read(dbms, 63)
        frame = frame_of(dbms, 63)
        assert not frame.dirty and not frame.fdirty


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
        assert pool.frames() == []
        assert pool.stats.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            BufferPool(0)

    def test_hit_rate(self, pool):
        fill(pool, 1)
        pool.lookup(1)  # hit
        pool.lookup(2)  # miss
        assert pool.stats.hit_rate == pytest.approx(0.5)
