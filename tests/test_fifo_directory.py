"""mvFIFO queue directory: validity invariants and crash restore.

Versions enter the ring the one way the engine enqueues them,
``MvFifoCache._enqueue``; the directory itself only dequeues, looks up and
restores.
"""

import pytest

from repro.errors import CacheError
from repro.flashcache.directory import FifoDirectory
from tests.conftest import dequeue_one, enqueue_version, fifo_cache


@pytest.fixture
def cache():
    return fifo_cache(capacity=4)


@pytest.fixture
def directory(cache) -> FifoDirectory:
    return cache.directory


def check_invariant(directory: FifoDirectory):
    """At most one valid slot per page id, and it is the newest version."""
    newest: dict[int, int] = {}
    valid: dict[int, int] = {}
    for pos in directory.live_positions():
        meta = directory.meta_at(pos)
        newest[meta.page_id] = pos
        if meta.valid:
            assert meta.page_id not in valid, "two valid copies of one page"
            valid[meta.page_id] = pos
    for page_id, pos in valid.items():
        assert pos == newest[page_id], "valid copy is not the newest version"


def test_enqueue_assigns_increasing_positions(cache, directory):
    assert enqueue_version(cache, 10, 1, True) == 0
    assert enqueue_version(cache, 11, 2, False) == 1
    assert directory.size == 2


def test_enqueue_invalidates_previous_version(cache, directory):
    p0 = enqueue_version(cache, 10, 1, True)
    p1 = enqueue_version(cache, 10, 2, True)
    assert not directory.meta_at(p0).valid
    assert directory.meta_at(p1).valid
    assert directory.meta_at(p1).lsn == 2
    assert directory.valid_position(10) == p1
    check_invariant(directory)


def test_dequeue_fifo_order_and_validity_cleanup(cache, directory):
    enqueue_version(cache, 10, 1, True)
    enqueue_version(cache, 11, 1, False)
    pos, meta = dequeue_one(directory)
    assert pos == 0 and meta.page_id == 10
    assert not directory.contains_valid(10)
    assert directory.contains_valid(11)


def test_dequeue_of_stale_version_keeps_newer_valid(cache, directory):
    enqueue_version(cache, 10, 1, True)
    enqueue_version(cache, 10, 2, True)
    _, meta = dequeue_one(directory)
    assert not meta.valid
    assert directory.contains_valid(10)


def test_full_queue_rejects_enqueue(cache, directory):
    """A full queue takes no plain append: the enqueue retires the front
    slot first, so no live slot is overwritten."""
    for i in range(4):
        enqueue_version(cache, i, 1, False)
    assert directory.is_full
    assert enqueue_version(cache, 99, 1, False) == 4
    assert (directory.front, directory.size) == (1, 4)
    assert not directory.contains_valid(0)
    assert [directory.meta_at(p).page_id for p in directory.live_positions()] == [1, 2, 3, 99]


def test_dequeue_empty_rejected(directory):
    with pytest.raises(CacheError):
        directory.dequeue_batch(1)


def test_physical_wraps_circularly(cache, directory):
    for i in range(4):
        enqueue_version(cache, i, 1, False)
    directory.dequeue_batch(1)
    pos = enqueue_version(cache, 99, 1, False)
    assert directory.physical(pos) == 0  # reuses the freed front slot


def test_duplicate_fraction(cache, directory):
    enqueue_version(cache, 10, 1, True)
    enqueue_version(cache, 10, 2, True)
    enqueue_version(cache, 11, 1, True)
    assert directory.valid_count == 2
    assert directory.duplicate_fraction == pytest.approx(1 / 3)


def test_wipe_resets_everything(cache, directory):
    enqueue_version(cache, 10, 1, True)
    directory.wipe()
    assert directory.size == 0
    assert not directory.contains_valid(10)


class TestRestore:
    def test_restore_replays_validity_last_wins(self, directory):
        entries = [(0, 10, 1, True), (1, 11, 1, False), (2, 10, 2, True)]
        directory.restore(front=0, rear=3, entries=entries)
        assert directory.valid_position(10) == 2
        assert directory.valid_position(11) == 1
        assert not directory.meta_at(0).valid
        check_invariant(directory)

    def test_restore_ignores_already_dequeued_positions(self, directory):
        entries = [(0, 10, 1, True), (1, 11, 1, True)]
        directory.restore(front=1, rear=2, entries=entries)
        assert not directory.contains_valid(10)
        assert directory.contains_valid(11)

    def test_restore_preserves_dirty_flags(self, directory):
        directory.restore(front=0, rear=2, entries=[(0, 5, 3, True), (1, 6, 4, False)])
        assert directory.meta_at(0).dirty
        assert not directory.meta_at(1).dirty
        assert directory.meta_at(0).lsn == 3

    def test_restore_out_of_order_entries_still_last_wins(self, directory):
        entries = [(2, 10, 2, True), (0, 10, 1, True)]
        directory.restore(front=0, rear=3, entries=entries)
        assert directory.valid_position(10) == 2


def test_capacity_validation():
    with pytest.raises(CacheError):
        FifoDirectory(0)


def test_invariant_under_mixed_operations():
    cache = fifo_cache(8)
    directory = cache.directory
    import random

    rng = random.Random(0)
    for step in range(500):  # a full queue dequeues its front to make room
        enqueue_version(cache, rng.randint(0, 5), step, rng.random() < 0.5)
        check_invariant(directory)
