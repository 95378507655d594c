"""Plain FaCE mvFIFO cache: Algorithm 1 behaviour, I/O shape, recovery."""

import pytest

from repro.flashcache.mvfifo import MvFifoCache
from tests.conftest import make_frame

CAPACITY = 16


@pytest.fixture
def cache(flash_volume, disk_volume) -> MvFifoCache:
    return MvFifoCache(flash_volume, disk_volume, capacity=CAPACITY, segment_entries=8)


class TestEnqueueRules:
    def test_dirty_eviction_enqueued_unconditionally(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        assert 1 in cache.directory.valid_pos
        assert cache.stats.flash_writes == 1
        assert cache.stats.dirty_evictions == 1

    def test_clean_eviction_enqueued_when_absent(self, cache):
        cache.on_dram_evict(make_frame(1))
        assert 1 in cache.directory.valid_pos
        assert cache.stats.clean_evictions == 1

    def test_clean_eviction_skipped_when_identical_copy_cached(self, cache):
        cache.on_dram_evict(make_frame(1))
        cache.on_dram_evict(make_frame(1))  # same page, still clean
        assert cache.stats.skipped_enqueues == 1
        assert cache.stats.flash_writes == 1

    def test_fdirty_reenqueue_creates_new_version(self, cache):
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
        assert cache.stats.flash_writes == 2
        assert cache.directory.size == 2
        assert cache.directory.valid_count == 1

    def test_enqueues_are_sequential_flash_writes(self, cache):
        for i in range(CAPACITY):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        stats = cache.flash.device.stats
        # Metadata segment flushes (every 8 enqueues here) interleave with
        # the append stream; only those and the first write may be random.
        assert stats.seq_write_ops >= CAPACITY - 4
        # Each tiny (1-page) metadata segment flush here costs up to 3
        # non-sequential ops (segment, superblock, broken append cursor);
        # in the real configuration segments are ~375-page batch writes.
        assert stats.random_write_ops <= 7


class TestLookupFetch:
    def test_hit_returns_image_and_dirty_flag(self, cache):
        cache.on_dram_evict(make_frame(7, dirty=True, fdirty=True))
        result = cache.lookup_fetch(7)
        assert result is not None
        image, dirty = result
        assert image.page_id == 7
        assert dirty
        assert cache.stats.hits == 1

    def test_hit_returns_newest_version(self, cache):
        frame = make_frame(7, dirty=True, fdirty=True)
        cache.on_dram_evict(frame)
        frame.page.put(0, ("newer",), lsn=99)
        cache.on_dram_evict(frame)
        image, _ = cache.lookup_fetch(7)
        assert image.slots[0] == ("newer",)

    def test_miss_returns_none(self, cache):
        assert cache.lookup_fetch(42) is None
        assert cache.stats.lookups == 1
        assert cache.stats.hits == 0

    def test_hit_sets_reference_flag(self, cache):
        cache.on_dram_evict(make_frame(7))
        cache.lookup_fetch(7)
        pos = cache.directory.valid_position(7)
        assert cache.directory.meta_at(pos).referenced

    def test_hit_charges_flash_read(self, cache):
        cache.on_dram_evict(make_frame(7))
        reads_before = cache.flash.device.stats.read_pages
        cache.lookup_fetch(7)
        assert cache.flash.device.stats.read_pages == reads_before + 1


class TestReplacement:
    def fill(self, cache, dirty=True, start=0):
        for i in range(start, start + CAPACITY):
            cache.on_dram_evict(make_frame(i, dirty=dirty, fdirty=dirty))

    def test_valid_dirty_dequeue_writes_to_disk(self, cache):
        self.fill(cache, dirty=True)
        disk_writes_before = cache.stats.disk_writes
        cache.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert cache.stats.disk_writes == disk_writes_before + 1
        assert cache.disk.peek(0) is not None  # page 0 landed home

    def test_valid_clean_dequeue_discards_for_free(self, cache):
        self.fill(cache, dirty=False)
        disk_before = cache.disk.device.stats.write_pages
        cache.on_dram_evict(make_frame(100))
        assert cache.disk.device.stats.write_pages == disk_before

    def test_invalidated_dirty_version_avoids_disk_write(self, cache):
        """The heart of multi-versioning: a superseded dirty version dies
        without costing a disk write."""
        frame = make_frame(0, dirty=True, fdirty=True)
        cache.on_dram_evict(frame)
        for i in range(1, CAPACITY):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        # Re-enqueueing page 0 invalidates the front slot *before* the
        # replacement runs, so the stale dirty version is discarded free.
        assert cache.stats.disk_writes == 0
        cache.on_dram_evict(make_frame(0, dirty=True, fdirty=True))
        assert cache.stats.disk_writes == 0
        assert cache.stats.invalidated_dirty == 1
        # The next replacement victim (page 1) is valid-dirty: that one pays.
        cache.on_dram_evict(make_frame(200, dirty=True, fdirty=True))
        assert cache.stats.disk_writes == 1

    def test_write_reduction_reflects_absorbed_writes(self, cache):
        for _ in range(4):  # 4 dirty evictions of the same page
            cache.on_dram_evict(make_frame(3, dirty=True, fdirty=True))
        # Force everything out.
        for i in range(10, 10 + 2 * CAPACITY):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        assert 0.0 < cache.stats.write_reduction < 1.0


class TestCheckpoint:
    def test_checkpoint_goes_to_flash_not_disk(self, cache):
        frame = make_frame(5, dirty=True, fdirty=True)
        disk_before = cache.disk.device.stats.write_pages
        cache.checkpoint_frame(frame)
        assert cache.disk.device.stats.write_pages == disk_before
        assert 5 in cache.directory.valid_pos
        assert not frame.fdirty
        assert frame.dirty  # disk copy is still stale - by design

    def test_checkpoint_skips_synced_pages(self, cache):
        frame = make_frame(5, dirty=True, fdirty=True)
        cache.checkpoint_frame(frame)
        writes = cache.stats.flash_writes
        cache.checkpoint_frame(frame)  # fdirty now False, copy valid
        assert cache.stats.flash_writes == writes


class TestCrashRecovery:
    def test_crash_then_recover_restores_directory(self, cache):
        for i in range(10):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        valid_before = {
            i for i in range(10) if i in cache.directory.valid_pos
        }
        cache.crash()
        assert cache.directory.size == 0
        timings = cache.recover()
        assert timings.cache_survives
        assert {
            i for i in range(10) if i in cache.directory.valid_pos
        } == valid_before

    def test_recovered_fetch_returns_correct_content(self, cache):
        frame = make_frame(3, dirty=True, fdirty=True)
        frame.page.put(0, ("precious",), lsn=50)
        cache.on_dram_evict(frame)
        cache.crash()
        cache.recover()
        image, dirty = cache.lookup_fetch(3)
        assert image.slots[0] == ("precious",)
        assert dirty


def test_duplicate_fraction_property(cache):
    cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
    cache.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
    assert cache.duplicate_fraction == pytest.approx(0.5)


def test_capacity_validation(flash_volume, disk_volume):
    from repro.errors import CacheError

    with pytest.raises(CacheError):
        MvFifoCache(flash_volume, disk_volume, capacity=0)
    with pytest.raises(CacheError):
        MvFifoCache(flash_volume, disk_volume, capacity=512)  # no metadata room
