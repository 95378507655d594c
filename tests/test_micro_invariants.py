"""Invariants behind the hot-path micro-optimisations.

The perf work (ISSUE: micro-opt satellite) must be behaviour-preserving:

* ``__slots__`` on :class:`Frame` and :class:`SlotMeta` removes per-instance
  dicts without changing the FaCE flag protocol;
* the ``Page`` ↔ ``PageImage`` copy-on-write sharing must never let a
  mutation leak into a frozen image, and must invalidate its cached
  snapshot on *every* mutation path;
* ``FifoDirectory.dequeue_batch`` and the batched ``_make_room`` must be
  observationally identical — same victims, same I/O charges, same
  statistics — to the one-slot-at-a-time rule from the paper (a batch of
  one per slot).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import CachePolicy
from repro.db.page import Page, PageImage
from repro.errors import CacheError
from repro.flashcache.directory import FifoDirectory, SlotMeta
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume
from tests.conftest import (
    enqueue_version,
    fifo_cache,
    frame_of,
    kv_dbms_with,
    kv_read,
    kv_write,
    make_frame,
    push_out_of_dram,
)


# -- __slots__ ----------------------------------------------------------------


def test_frame_and_slotmeta_have_no_instance_dict():
    frame = make_frame(1)
    meta = SlotMeta(page_id=1, lsn=10, dirty=True)
    page = Page(1)
    for obj in (frame, meta, page):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.no_such_attribute = 1


def test_frame_flag_protocol_unchanged():
    # One page through the engine's cycle on a FaCE system: read from disk,
    # updated, pushed out to flash, read back.
    dbms = kv_dbms_with(CachePolicy.FACE)
    flags = lambda: (frame_of(dbms, 7).dirty, frame_of(dbms, 7).fdirty)  # noqa: E731
    kv_read(dbms, 7)
    assert flags() == (False, False)

    kv_write(dbms, 7, "updated")
    assert flags() == (True, True)

    push_out_of_dram(dbms, 7)
    kv_read(dbms, 7)
    assert flags() == (True, False)


# -- Page <-> PageImage copy-on-write -----------------------------------------


def test_repeated_snapshots_of_unchanged_page_are_the_same_object():
    page = Page(3, lsn=5, slots={0: ("a",)})
    first = page.to_image()
    assert page.to_image() is first  # the conditional-enqueue fast path
    assert first.slots == {0: ("a",)}


def test_put_after_freeze_does_not_leak_into_the_image():
    page = Page(3, lsn=5, slots={0: ("a",)})
    image = page.to_image()
    page.put(1, ("b",), lsn=6)
    assert image.slots == {0: ("a",)}  # frozen copy untouched
    assert image.lsn == 5
    assert page.get(1) == ("b",)
    fresh = page.to_image()
    assert fresh is not image  # cache invalidated by the mutation
    assert fresh.slots == {0: ("a",), 1: ("b",)}


def test_delete_after_freeze_does_not_leak_into_the_image():
    page = Page(3, lsn=5, slots={0: ("a",), 1: ("b",)})
    image = page.to_image()
    page.delete(0, lsn=6)
    assert image.slots == {0: ("a",), 1: ("b",)}
    assert page.get(0) is None
    assert page.to_image().slots == {1: ("b",)}


def test_direct_slots_assignment_invalidates_the_cached_snapshot():
    page = Page(3, lsn=5, slots={0: ("a",)})
    stale = page.to_image()
    page.slots = {0: ("z",)}
    fresh = page.to_image()
    assert fresh is not stale
    assert fresh.slots == {0: ("z",)}
    assert stale.slots == {0: ("a",)}


def test_thawed_page_mutation_does_not_corrupt_the_shared_image():
    image = PageImage(page_id=3, lsn=5, slots={0: ("a",)})
    thawed = image.to_page()
    assert thawed.slots is image.slots  # shared until first write
    thawed.put(0, ("changed",), lsn=6)
    assert image.slots == {0: ("a",)}
    # A second thaw is unaffected by the first page's mutations.
    assert image.to_page().get(0) == ("a",)


def test_freeze_thaw_round_trip_preserves_contents():
    page = Page(9, lsn=42, slots={0: ("x", 1), 5: ("y", 2)})
    thawed = page.to_image().to_page()
    assert thawed.page_id == 9
    assert thawed.lsn == 42
    assert thawed.slots == page.slots
    # An unmodified thawed page re-freezes to the *same* image (no copy).
    assert thawed.to_image() is page.to_image()


# -- batched dequeue ----------------------------------------------------------


def _filled_directory() -> FifoDirectory:
    cache = fifo_cache(capacity=8)
    for page_id in (1, 2, 3, 1, 4, 2, 5, 6):  # re-enqueues create duplicates
        enqueue_version(cache, page_id, page_id * 10, page_id % 2 == 0)
    return cache.directory


def test_dequeue_batch_matches_repeated_dequeue():
    batched, reference = _filled_directory(), _filled_directory()
    got = batched.dequeue_batch(5)
    expected = [pair for _ in range(5) for pair in reference.dequeue_batch(1)]
    assert got == expected
    assert batched.front == reference.front
    assert batched.size == reference.size
    assert batched.valid_count == reference.valid_count
    for page_id in range(1, 7):
        assert (page_id in batched.valid_pos) == (page_id in reference.valid_pos), page_id
    # The remainder still dequeues identically.
    while reference.size:
        assert batched.dequeue_batch(1) == reference.dequeue_batch(1)


def test_dequeue_batch_overdraw_rejected():
    directory = _filled_directory()
    with pytest.raises(CacheError, match="dequeue_batch"):
        directory.dequeue_batch(directory.size + 1)
    assert directory.size == 8  # nothing consumed on failure


def test_dequeue_batch_zero_is_a_noop():
    directory = _filled_directory()
    assert directory.dequeue_batch(0) == []
    assert directory.size == 8


# -- batched _make_room charges the same I/O ---------------------------------


def _cache() -> MvFifoCache:
    flash = Volume(FlashDevice(MLC_SAMSUNG_470, 64))
    disk = Volume(DiskDevice(HDD_CHEETAH_15K, 4096))
    return MvFifoCache(flash, disk, capacity=16, segment_entries=8)


def _one_at_a_time(directory: FifoDirectory):
    """The pre-batching reference: ``count`` separate single-slot dequeues."""
    batch_of = type(directory).dequeue_batch

    def dequeue_batch(count: int):
        return [pair for _ in range(count) for pair in batch_of(directory, 1)]

    return dequeue_batch


def test_make_room_batching_charges_identical_io():
    batched, reference = _cache(), _cache()
    reference.directory.dequeue_batch = _one_at_a_time(reference.directory)

    rng = random.Random(7)
    for _ in range(200):  # overflows the 16-slot queue many times
        page_id = rng.randrange(24)
        fdirty = rng.random() < 0.5
        dirty = fdirty or rng.random() < 0.3
        for cache in (batched, reference):
            cache.on_dram_evict(make_frame(page_id, dirty=dirty, fdirty=fdirty))

    assert batched.stats == reference.stats
    assert batched.directory.front == reference.directory.front
    assert batched.directory.rear == reference.directory.rear
    assert batched.duplicate_fraction == reference.duplicate_fraction
    for side in ("flash", "disk"):
        b = getattr(batched, side).device.stats
        r = getattr(reference, side).device.stats
        assert b == r, side  # ops, pages and busy time by kind
