"""Persistent metadata manager: segment flushing and restart restore."""

import pytest

from repro.db.page import PageImage
from repro.errors import CacheError
from repro.flashcache.directory import FifoDirectory
from repro.flashcache.metadata import (
    CacheSlotImage,
    MetadataManager,
    build_metadata_region,
    unwrap_image,
)
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.profiles import MLC_SAMSUNG_470
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume
from tests.conftest import enqueue_version

CACHE = 64
SEGMENT = 8


@pytest.fixture
def flash() -> Volume:
    return Volume(FlashDevice(MLC_SAMSUNG_470, 256))


@pytest.fixture
def cache(flash, disk_volume) -> MvFifoCache:
    """Plain FaCE over ``flash``: its enqueue writes the data page, then a
    metadata segment once a segment's worth of enqueues is unpersisted."""
    return MvFifoCache(flash, disk_volume, CACHE, SEGMENT)


@pytest.fixture
def manager(cache) -> MetadataManager:
    return cache.metadata


def test_segment_flush_happens_at_capacity(cache, manager):
    for i in range(SEGMENT - 1):
        enqueue_version(cache, i, 1, True)
    assert manager.segments_flushed == 0
    enqueue_version(cache, 99, 1, True)
    assert manager.segments_flushed == 1


def test_segment_flush_is_batched_io(flash, cache):
    ops_before = flash.device.stats.total_ops
    for i in range(SEGMENT):
        enqueue_version(cache, i, 1, True)
    # SEGMENT data-page writes + 1 segment write + 1 superblock write.
    assert flash.device.stats.total_ops == ops_before + SEGMENT + 2


def test_recover_from_persistent_segments_only(cache, manager):
    for i in range(SEGMENT):  # exactly one flushed segment, empty current
        enqueue_version(cache, i, i + 1, True)
    manager.crash()
    restored = FifoDirectory(CACHE)
    timings = manager.recover(restored)
    assert timings.cache_survives
    for i in range(SEGMENT):
        assert restored.contains_valid(i)
    assert restored.meta_at(restored.valid_position(3)).lsn == 4


def test_recover_rebuilds_unflushed_tail_from_page_footers(cache, manager):
    for i in range(SEGMENT + 3):  # 3 entries never flushed
        enqueue_version(cache, i, 1, i % 2 == 0)
    manager.crash()
    restored = FifoDirectory(CACHE)
    timings = manager.recover(restored)
    assert restored.rear == SEGMENT + 3
    for i in range(SEGMENT + 3):
        assert restored.contains_valid(i)
    # Dirty flags recovered exactly from footers.
    pos = restored.valid_position(SEGMENT + 2)
    assert restored.meta_at(pos).dirty == ((SEGMENT + 2) % 2 == 0)
    assert timings.pages_scanned >= 3


def test_recover_with_no_persistent_state_at_all(cache, manager):
    for i in range(3):  # never reached a segment flush
        enqueue_version(cache, i, 1, True)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    assert restored.rear == 3
    assert all(restored.contains_valid(i) for i in range(3))


def test_recover_validity_respects_multi_versions(cache, manager):
    enqueue_version(cache, 10, 1, True)
    enqueue_version(cache, 10, 2, True)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    pos = restored.valid_position(10)
    assert restored.meta_at(pos).lsn == 2
    assert not restored.meta_at(0).valid


def test_recover_respects_noted_front(cache, manager):
    directory = cache.directory
    for i in range(SEGMENT):
        enqueue_version(cache, i, 1, True)
    directory.dequeue_batch(2)
    for i in range(SEGMENT):  # second flush persists the front
        enqueue_version(cache, 100 + i, 1, True)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    assert restored.front == 2
    assert not restored.contains_valid(0)
    assert not restored.contains_valid(1)
    assert restored.contains_valid(2)


def test_recovery_charges_flash_reads(flash, cache, manager):
    for i in range(SEGMENT * 2):
        enqueue_version(cache, i, 1, True)
    manager.crash()
    busy_before = flash.device.busy_time
    timings = manager.recover(FifoDirectory(CACHE))
    assert flash.device.busy_time > busy_before
    assert timings.metadata_restore_time == pytest.approx(
        flash.device.busy_time - busy_before
    )
    assert timings.segment_pages_read >= 1


def test_build_metadata_region_sizing():
    base, pages = build_metadata_region(cache_capacity=1000, segment_entries=100)
    assert base == 1000
    assert pages >= 2  # superblock + at least one segment slot


def test_region_too_small_rejected(flash):
    with pytest.raises(CacheError):
        MetadataManager(flash, 64, meta_base=64, meta_pages=1, segment_entries=8)


def test_unwrap_image_accepts_both_forms():
    image = PageImage(1, 2, {})
    assert unwrap_image(image) is image
    assert unwrap_image(CacheSlotImage(0, False, image)) is image
    with pytest.raises(CacheError):
        unwrap_image("garbage")
