"""The Section 3.2 ablation switches (write-through, dirty-only admission)."""

import pytest

from repro.core.config import CachePolicy
from repro.flashcache.group import GroupSecondChanceCache
from repro.flashcache.mvfifo import MvFifoCache
from repro.recovery.restart import crash_and_restart
from tests.conftest import kv_dbms_with, kv_read, kv_write, make_frame


class TestWriteThrough:
    @pytest.fixture
    def cache(self, flash_volume, disk_volume) -> MvFifoCache:
        return MvFifoCache(
            flash_volume, disk_volume, capacity=16, segment_entries=8,
            write_through=True,
        )

    def test_dirty_eviction_writes_disk_immediately(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        assert cache.stats.disk_writes == 1
        assert cache.disk.peek(1) is not None

    def test_cached_copy_enters_clean(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        _, dirty = cache.lookup_fetch(1)
        assert not dirty  # synced with disk

    def test_dequeue_never_rewrites_disk(self, cache):
        for i in range(20):  # forces replacements
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        assert cache.stats.disk_writes == 20  # exactly the write-through set

    def test_write_reduction_is_zero(self, cache):
        for i in range(6):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        assert cache.stats.write_reduction == 0.0

    def test_clean_identical_copy_still_skipped(self, cache):
        frame = make_frame(1, dirty=True, fdirty=True)
        cache.on_dram_evict(frame)
        frame.dirty = frame.fdirty = False
        cache.on_dram_evict(frame)  # clean now, copy cached
        assert cache.stats.skipped_enqueues >= 1


class TestDirtyOnlyAdmission:
    @pytest.fixture
    def cache(self, flash_volume, disk_volume) -> MvFifoCache:
        return MvFifoCache(
            flash_volume, disk_volume, capacity=16, segment_entries=8,
            cache_clean=False,
        )

    def test_clean_evictions_are_discarded(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=False))
        assert cache.lookup_fetch(1) is None
        assert cache.stats.flash_writes == 0

    def test_dirty_evictions_still_cached(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        assert cache.lookup_fetch(1) is not None

    def test_gsc_variant_honours_flag(self, flash_volume, disk_volume):
        cache = GroupSecondChanceCache(
            flash_volume, disk_volume, capacity=32, segment_entries=16,
            scan_depth=8, cache_clean=False,
        )
        cache.on_dram_evict(make_frame(1, dirty=False))
        cache.on_dram_evict(make_frame(2, dirty=True, fdirty=True))
        assert 1 not in cache.directory.valid_pos
        assert 2 in cache.directory.valid_pos


class TestAblationsStayRecoverable:
    """Durability must hold even under the rejected design alternatives."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"face_write_through": True},
            {"face_cache_clean": False},
            {"face_write_through": True, "face_cache_clean": False},
        ],
    )
    def test_crash_consistency(self, overrides):
        dbms = kv_dbms_with(CachePolicy.FACE_GSC, **overrides)
        for k in range(32):
            kv_write(dbms, k, f"a{k}")
        dbms.checkpoint()
        for k in range(32, 64):
            kv_write(dbms, k, f"b{k}")
        crash_and_restart(dbms)
        for k in range(32):
            assert kv_read(dbms, k) == (k, f"a{k}")
        for k in range(32, 64):
            assert kv_read(dbms, k) == (k, f"b{k}")
