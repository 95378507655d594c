"""Lazy Cleaning baseline: in-place LRU-2 cache with a background cleaner."""

import pytest

from repro.errors import CacheError
from repro.flashcache.lc import LazyCleaningCache
from repro.storage.device import IOKind
from tests.conftest import make_frame

CAPACITY = 8


@pytest.fixture
def lc(flash_volume, disk_volume) -> LazyCleaningCache:
    return LazyCleaningCache(flash_volume, disk_volume, capacity=CAPACITY)


def test_caches_clean_and_dirty_on_exit(lc):
    lc.on_dram_evict(make_frame(1, dirty=False))
    lc.on_dram_evict(make_frame(2, dirty=True, fdirty=True))
    assert lc.lookup_fetch(1) is not None
    image, dirty = lc.lookup_fetch(2)
    assert dirty


def test_single_copy_overwritten_in_place(lc):
    frame = make_frame(1, dirty=True, fdirty=True)
    lc.on_dram_evict(frame)
    frame.page.put(0, ("v2",), lsn=9)
    lc.on_dram_evict(frame)
    assert lc.cached_pages == 1
    image, _ = lc.lookup_fetch(1)
    assert image.slots[0] == ("v2",)


def test_steady_state_overwrites_are_random_flash_writes(lc):
    """The LRU in-place pattern is random I/O — the Table 4 contrast.
    (The initial fill is sequential; steady state is overwrites.)"""
    for i in range(CAPACITY):
        lc.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
    before = lc.flash.device.stats.ops[IOKind.RANDOM_WRITE]
    for i in (5, 1, 6, 2, 7, 0):  # re-evictions overwrite in place
        lc.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
    stats = lc.flash.device.stats
    assert stats.ops[IOKind.RANDOM_WRITE] - before >= 5


def test_write_back_defers_disk_until_flash_eviction(lc):
    lc.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
    assert lc.stats.disk_writes == 0
    for i in range(2, CAPACITY + 2):  # push page 1 out of the LRU-2 cache
        lc.on_dram_evict(make_frame(i, dirty=False))
    assert lc.stats.disk_writes == 1
    assert lc.disk.peek(1) is not None


def test_dirty_victim_costs_flash_read_plus_disk_write(lc):
    lc.on_dram_evict(make_frame(1, dirty=True, fdirty=True))
    for i in range(2, CAPACITY + 1):
        lc.on_dram_evict(make_frame(i, dirty=False))
    reads_before = lc.flash.device.stats.read_pages
    lc.on_dram_evict(make_frame(99, dirty=False))  # evicts dirty page 1
    assert lc.flash.device.stats.read_pages == reads_before + 1
    assert lc.stats.disk_writes == 1


def test_clean_victim_eviction_is_free_of_data_io(lc):
    for i in range(CAPACITY):
        lc.on_dram_evict(make_frame(i, dirty=False))
    disk_before = lc.disk.device.stats.write_pages
    lc.on_dram_evict(make_frame(100, dirty=False))
    assert lc.disk.device.stats.write_pages == disk_before


def test_lazy_cleaner_triggers_above_threshold(flash_volume, disk_volume):
    lc = LazyCleaningCache(flash_volume, disk_volume, CAPACITY, dirty_threshold=0.5)
    for i in range(CAPACITY):  # all dirty: fraction 1.0 > 0.5
        lc.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
    assert lc.cleaner_flushes > 0
    assert lc.dirty_fraction <= 0.5
    # Cleaned pages stay cached, just clean.
    assert lc.cached_pages == CAPACITY


def test_checkpoint_frame_writes_through_to_disk_and_flash(lc):
    frame = make_frame(3, dirty=True, fdirty=True)
    lc.on_dram_evict(frame)
    frame.page.put(0, ("ckpt",), lsn=10)
    frame.dirty = frame.fdirty = True
    lc.checkpoint_frame(frame)
    assert lc.disk.peek(3).slots[0] == ("ckpt",)
    assert not frame.dirty and not frame.fdirty
    image, dirty = lc.lookup_fetch(3)
    assert image.slots[0] == ("ckpt",)
    assert not dirty  # synced with disk now


def test_finish_checkpoint_flushes_all_dirty_cached_pages(lc):
    for i in range(4):
        lc.on_dram_evict(make_frame(i, dirty=True, fdirty=True))
    lc.finish_checkpoint()
    assert lc.dirty_fraction == 0.0
    assert lc.stats.disk_writes == 4
    for i in range(4):
        assert lc.disk.peek(i) is not None


def test_crash_makes_cache_unusable(lc):
    lc.on_dram_evict(make_frame(1, dirty=False))
    lc.crash()
    assert lc.lookup_fetch(1) is None
    timings = lc.recover()
    assert not timings.cache_survives


def test_hit_updates_lru2_recency(lc):
    for i in range(CAPACITY):
        lc.on_dram_evict(make_frame(i, dirty=False))
    lc.lookup_fetch(0)
    lc.lookup_fetch(0)  # page 0 now twice-referenced
    lc.on_dram_evict(make_frame(100, dirty=False))
    assert lc.lookup_fetch(0) is not None  # survived; a colder page went


def test_validation():
    from repro.storage.hdd import DiskDevice
    from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470
    from repro.storage.ssd import FlashDevice
    from repro.storage.volume import Volume

    flash = Volume(FlashDevice(MLC_SAMSUNG_470, 64))
    disk = Volume(DiskDevice(HDD_CHEETAH_15K, 64))
    with pytest.raises(CacheError):
        LazyCleaningCache(flash, disk, capacity=0)
    with pytest.raises(CacheError):
        LazyCleaningCache(flash, disk, capacity=8, dirty_threshold=1.5)
