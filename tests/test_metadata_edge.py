"""Metadata manager edge cases: circular region reuse, staging ordering."""

import pytest

from repro.db.page import PageImage
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.profiles import MLC_SAMSUNG_470
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume
from tests.conftest import make_frame


def make_cache(cls=MvFifoCache, capacity=32, segment_entries=8,
               flash_pages=512, **kwargs):
    from repro.storage.hdd import DiskDevice
    from repro.storage.profiles import HDD_CHEETAH_15K

    flash = Volume(FlashDevice(MLC_SAMSUNG_470, flash_pages))
    disk = Volume(DiskDevice(HDD_CHEETAH_15K, 4096))
    return cls(flash, disk, capacity, segment_entries, **kwargs)


class TestSegmentRegionReuse:
    def test_many_segment_flushes_stay_within_region(self):
        """Enough enqueues to lap the metadata region several times."""
        # Tiny metadata region: only 8 pages beyond the 32-page cache.
        cache = make_cache(capacity=32, segment_entries=8, flash_pages=40)
        meta = cache.metadata
        for i in range(600):
            cache.on_dram_evict(make_frame(i % 200, dirty=True, fdirty=True))
        # Far more flushes than segment slots: the region was lapped.
        assert meta.segments_flushed > meta.meta_pages // meta.segment_pages
        # Recovery still works after heavy recycling.
        cache.crash()
        timings = cache.recover()
        assert timings.cache_survives
        assert cache.directory.size > 0

    def test_recovery_correct_after_region_lap(self):
        cache = make_cache(capacity=32, segment_entries=8)
        for i in range(300):
            frame = make_frame(i % 50, dirty=True, fdirty=True)
            frame.page.put(0, ("gen", i), lsn=i + 1)
            cache.on_dram_evict(frame)
        newest: dict[int, int] = {}
        for pos in cache.directory.live_positions():
            meta = cache.directory.meta_at(pos)
            if meta.valid:
                newest[meta.page_id] = meta.lsn
        cache.crash()
        cache.recover()
        for page_id, lsn in newest.items():
            pos = cache.directory.valid_position(page_id)
            assert pos is not None
            assert cache.directory.meta_at(pos).lsn == lsn
            image, _ = cache.lookup_fetch(page_id)
            assert image.slots[0] == ("gen", lsn - 1)


class TestStagingOrdering:
    def test_metadata_flush_forces_staging_first(self):
        """The data-before-metadata rule: when a segment flushes, every
        position it covers must already be on flash."""
        cache = make_cache(GroupReplacementCache, capacity=64,
                           segment_entries=8, scan_depth=16)
        # 8 enqueues trigger a segment flush while staging holds < 16 pages.
        for i in range(8):
            cache.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
        assert cache.metadata.segments_flushed == 1
        for position in range(8):
            assert cache.flash.peek(cache.directory.physical(position)) is not None

    def test_staging_wrap_splits_into_two_writes(self):
        cache = make_cache(GroupReplacementCache, capacity=32,
                           segment_entries=16, scan_depth=8)
        # Fill to capacity, then trigger replacement so the rear wraps.
        for i in range(32 + 4):
            cache.on_dram_evict(make_frame(1000 + i, dirty=True, fdirty=True))
        cache.finish_checkpoint()  # flush whatever is staged
        # All live valid pages must be physically present and correct.
        for pos in cache.directory.live_positions():
            meta = cache.directory.meta_at(pos)
            image = cache._read_slot(pos, timed=False)
            assert image.page_id == meta.page_id

    def test_batch_writes_dominate_group_cache_traffic(self):
        cache = make_cache(GroupSecondChanceCache, capacity=64,
                           segment_entries=16, scan_depth=16)
        for i in range(200):
            cache.on_dram_evict(make_frame(i % 80, dirty=True, fdirty=True))
        stats = cache.flash.device.stats
        batch_pages = stats.seq_write_pages
        single_pages = stats.random_write_pages
        assert batch_pages > 5 * max(1, single_pages)


class TestFooterIntegrity:
    def test_stored_slots_carry_position_and_dirty(self):
        cache = make_cache(capacity=16, segment_entries=8)
        cache.on_dram_evict(make_frame(3, dirty=True, fdirty=True))
        slot = cache.flash.peek(cache.directory.physical(0))
        assert slot.position == 0
        assert slot.dirty
        assert isinstance(slot.image, PageImage)

    def test_clean_enqueue_footer_marks_clean(self):
        cache = make_cache(capacity=16, segment_entries=8)
        cache.on_dram_evict(make_frame(3, dirty=False))
        slot = cache.flash.peek(cache.directory.physical(0))
        assert not slot.dirty
