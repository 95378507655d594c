"""Group Replacement and Group Second Chance (Section 3.3)."""

import pytest

from repro.buffer.frame import Frame
from repro.db.page import Page
from repro.errors import CacheError
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.storage.device import IOKind
from tests.conftest import make_frame

CAPACITY = 32
DEPTH = 8


@pytest.fixture
def gr(flash_volume, disk_volume) -> GroupReplacementCache:
    return GroupReplacementCache(
        flash_volume, disk_volume, capacity=CAPACITY, segment_entries=64,
        scan_depth=DEPTH,
    )


@pytest.fixture
def gsc(flash_volume, disk_volume) -> GroupSecondChanceCache:
    return GroupSecondChanceCache(
        flash_volume, disk_volume, capacity=CAPACITY, segment_entries=64,
        scan_depth=DEPTH,
    )


def fill(cache, n=CAPACITY, dirty=True, start=0):
    for i in range(start, start + n):
        cache.on_dram_evict(make_frame(i, dirty=dirty, fdirty=dirty))


class TestStaging:
    def test_enqueues_buffer_until_scan_depth(self, gr):
        writes_before = gr.flash.device.stats.write_pages
        fill(gr, DEPTH - 1)
        assert gr.flash.device.stats.write_pages == writes_before

    def test_staging_flush_is_one_batch_write(self, gr):
        fill(gr, DEPTH)
        stats = gr.flash.device.stats
        assert stats.ops[IOKind.SEQ_WRITE] == 1
        assert stats.pages[IOKind.SEQ_WRITE] == DEPTH

    def test_staged_page_fetchable_without_flash_read(self, gr):
        gr.on_dram_evict(make_frame(5, dirty=True, fdirty=True))
        reads_before = gr.flash.device.stats.read_pages
        result = gr.lookup_fetch(5)
        assert result is not None
        assert gr.flash.device.stats.read_pages == reads_before

    def test_finish_checkpoint_flushes_staging(self, gr):
        gr.on_dram_evict(make_frame(5, dirty=True, fdirty=True))
        gr.finish_checkpoint()
        assert gr.flash.peek(gr.directory.physical(0)) is not None

    def test_crash_loses_staged_pages(self, gr):
        gr.on_dram_evict(make_frame(5, dirty=True, fdirty=True))
        gr.crash()
        gr.recover()
        assert gr.lookup_fetch(5) is None  # never reached flash


class TestGroupReplacement:
    def test_batch_dequeue_frees_scan_depth_slots(self, gr):
        fill(gr, CAPACITY, dirty=False)
        gr.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert gr.directory.free_slots == DEPTH - 1

    def test_batch_dequeue_charges_single_batched_read(self, gr):
        fill(gr, CAPACITY, dirty=False)
        read_ops_before = gr.flash.device.stats.total_ops
        gr.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        read_pages = gr.flash.device.stats.pages[IOKind.SEQ_READ]
        assert read_pages >= DEPTH  # one batch read covering the scan

    def test_dirty_victims_in_batch_reach_disk(self, gr):
        fill(gr, CAPACITY, dirty=True)
        gr.finish_checkpoint()
        gr.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert gr.stats.disk_writes == DEPTH
        for i in range(DEPTH):
            assert gr.disk.peek(i) is not None

    def test_no_second_chances_under_gr(self, gr):
        fill(gr, CAPACITY, dirty=False)
        gr.finish_checkpoint()
        gr.lookup_fetch(0)  # reference the front page
        gr.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert not gr.directory.contains_valid(0)  # evicted anyway


class TestGroupSecondChance:
    def test_referenced_pages_survive_replacement(self, gsc):
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.lookup_fetch(0)
        gsc.lookup_fetch(2)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert gsc.directory.contains_valid(0)
        assert gsc.directory.contains_valid(2)
        assert not gsc.directory.contains_valid(1)

    def test_second_chance_is_consumed(self, gsc):
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.lookup_fetch(0)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        pos = gsc.directory.valid_position(0)
        assert not gsc.directory.meta_at(pos).referenced

    def test_unreferenced_dirty_pages_flush_to_disk(self, gsc):
        fill(gsc, CAPACITY, dirty=True)
        gsc.finish_checkpoint()
        gsc.lookup_fetch(0)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert gsc.stats.disk_writes == DEPTH - 1  # all but the survivor
        assert gsc.directory.contains_valid(0)

    def test_all_referenced_batch_sacrifices_front(self, gsc):
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        for i in range(DEPTH):
            gsc.lookup_fetch(i)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert not gsc.directory.contains_valid(0)  # sacrificed
        for i in range(1, DEPTH):
            assert gsc.directory.contains_valid(i)

    def test_pull_callback_fills_the_write_batch(self, gsc):
        pulled_log = []

        def pull(n):
            pulled_log.append(n)
            return [
                Frame(page=Page(500 + i, slots={0: ("pulled",)}), dirty=True, fdirty=True)
                for i in range(n)
            ]

        gsc.set_pull_callback(pull)
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert pulled_log == [DEPTH - 1]  # no survivors: batch minus incoming
        assert gsc.directory.contains_valid(500)
        assert gsc.stats.dirty_evictions >= DEPTH - 1

    def test_pulled_clean_duplicates_are_skipped(self, gsc):
        def pull(n):
            # Pull clean frames whose identical copies are already cached.
            return [make_frame(1, dirty=False) for _ in range(n)]

        gsc.set_pull_callback(pull)
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.on_dram_evict(make_frame(1, dirty=False))  # page 1 valid & clean
        # After replacement page 1 still cached exactly once as valid.
        assert gsc.stats.skipped_enqueues >= 1

    def test_crash_recover_after_group_activity(self, gsc):
        fill(gsc, CAPACITY + DEPTH, dirty=True)
        gsc.finish_checkpoint()
        valid = {i for i in range(CAPACITY + DEPTH) if gsc.directory.contains_valid(i)}
        gsc.crash()
        gsc.recover()
        restored = {
            i for i in range(CAPACITY + DEPTH) if gsc.directory.contains_valid(i)
        }
        assert restored == valid


class TestDurableFront:
    """A metadata flush between a batch dequeue and the re-enqueue of what
    it took must not persist a front past the only durable copy.

    Segments of 12 entries over a full 32-slot queue: the metadata was last
    flushed at rear 24, so the fourth enqueue after the dequeue of [0, 8)
    flushes it again — with later enqueues of that batch still to come.
    """

    @pytest.fixture
    def cache(self, flash_volume, disk_volume) -> GroupSecondChanceCache:
        cache = GroupSecondChanceCache(
            flash_volume, disk_volume, capacity=CAPACITY, segment_entries=12,
            scan_depth=DEPTH,
        )
        fill(cache, CAPACITY, dirty=True)
        assert cache.metadata.persisted_rear == 24
        return cache

    @staticmethod
    def durable_copy(cache, page_id: int):
        """The version a restart reads: the flash cache's, else the disk's."""
        hit = cache.lookup_fetch(page_id)
        return hit[0] if hit is not None else cache.disk.peek(page_id)

    def test_a_survivor_staged_after_the_flush_keeps_its_old_copy(self, cache):
        for page_id in range(1, DEPTH):
            cache.lookup_fetch(page_id)  # dirty and referenced: survivors
        cache.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        # Survivors 1-4 were flushed with the metadata; 5-7 are staged.
        assert cache.metadata.persisted_rear == 36
        assert cache.staged_slot(cache.directory.valid_position(7)) is not None
        cache.crash()
        cache.recover()
        for page_id in range(DEPTH):
            copy = self.durable_copy(cache, page_id)
            assert copy is not None, f"page {page_id} lost"
            assert copy.to_page().slots == make_frame(page_id).page.slots

    def test_the_incoming_page_keeps_its_superseded_copy(self, cache):
        def pull(n):
            return [make_frame(500 + i, dirty=True, fdirty=True) for i in range(n)]

        cache.set_pull_callback(pull)
        newer = Frame(page=Page(7, lsn=999, slots={0: ("newer",)}), dirty=True, fdirty=True)
        cache.on_dram_evict(newer)  # its copy at position 7 is dequeued invalid
        assert cache.metadata.persisted_rear == 36  # flushed by the DRAM pulls
        assert cache.staged_slot(cache.directory.valid_position(7)) is not None
        cache.crash()
        cache.recover()
        copy = self.durable_copy(cache, 7)
        assert copy is not None and copy.lsn == make_frame(7).page.lsn


class TestValidation:
    def test_scan_depth_bounds(self, flash_volume, disk_volume):
        with pytest.raises(CacheError):
            GroupReplacementCache(
                flash_volume, disk_volume, capacity=8, scan_depth=8
            )
        with pytest.raises(CacheError):
            GroupReplacementCache(
                flash_volume, disk_volume, capacity=64, scan_depth=0
            )
