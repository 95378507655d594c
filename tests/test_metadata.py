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
from repro.storage.profiles import MLC_SAMSUNG_470
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume

CACHE = 64
SEGMENT = 8


@pytest.fixture
def flash() -> Volume:
    return Volume(FlashDevice(MLC_SAMSUNG_470, 256))


@pytest.fixture
def manager(flash) -> MetadataManager:
    return MetadataManager(
        flash, cache_capacity=CACHE, meta_base=CACHE, meta_pages=64,
        segment_entries=SEGMENT,
    )


def enqueue_page(flash, manager, directory, page_id, lsn=1, dirty=True):
    """Mimic mvFIFO's enqueue: data page write, then a metadata segment
    once a segment's worth of enqueues is unpersisted."""
    position = directory.enqueue(page_id, lsn, dirty)
    image = PageImage(page_id, lsn, {0: ("v", lsn)})
    flash.write_page(position % CACHE, CacheSlotImage(position, dirty, image))
    if directory.rear - manager.persisted_rear >= manager.segment_entries:
        manager.flush_segment(directory, directory.front)
    return position


def test_segment_flush_happens_at_capacity(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(SEGMENT - 1):
        enqueue_page(flash, manager, directory, i)
    assert manager.segments_flushed == 0
    enqueue_page(flash, manager, directory, 99)
    assert manager.segments_flushed == 1


def test_segment_flush_is_batched_io(flash, manager):
    directory = FifoDirectory(CACHE)
    ops_before = flash.device.stats.total_ops
    for i in range(SEGMENT):
        enqueue_page(flash, manager, directory, i)
    # SEGMENT data-page writes + 1 segment write + 1 superblock write.
    assert flash.device.stats.total_ops == ops_before + SEGMENT + 2


def test_recover_from_persistent_segments_only(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(SEGMENT):  # exactly one flushed segment, empty current
        enqueue_page(flash, manager, directory, i, lsn=i + 1)
    manager.crash()
    restored = FifoDirectory(CACHE)
    timings = manager.recover(restored)
    assert timings.cache_survives
    for i in range(SEGMENT):
        assert restored.contains_valid(i)
    assert restored.meta_at(restored.valid_position(3)).lsn == 4


def test_recover_rebuilds_unflushed_tail_from_page_footers(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(SEGMENT + 3):  # 3 entries never flushed
        enqueue_page(flash, manager, directory, i, dirty=(i % 2 == 0))
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


def test_recover_with_no_persistent_state_at_all(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(3):  # never reached a segment flush
        enqueue_page(flash, manager, directory, i)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    assert restored.rear == 3
    assert all(restored.contains_valid(i) for i in range(3))


def test_recover_validity_respects_multi_versions(flash, manager):
    directory = FifoDirectory(CACHE)
    enqueue_page(flash, manager, directory, 10, lsn=1)
    enqueue_page(flash, manager, directory, 10, lsn=2)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    pos = restored.valid_position(10)
    assert restored.meta_at(pos).lsn == 2
    assert not restored.meta_at(0).valid


def test_recover_respects_noted_front(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(SEGMENT):
        enqueue_page(flash, manager, directory, i)
    directory.dequeue_batch(2)
    for i in range(SEGMENT):  # second flush persists the front
        enqueue_page(flash, manager, directory, 100 + i)
    manager.crash()
    restored = FifoDirectory(CACHE)
    manager.recover(restored)
    assert restored.front == 2
    assert not restored.contains_valid(0)
    assert not restored.contains_valid(1)
    assert restored.contains_valid(2)


def test_recovery_charges_flash_reads(flash, manager):
    directory = FifoDirectory(CACHE)
    for i in range(SEGMENT * 2):
        enqueue_page(flash, manager, directory, i)
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
