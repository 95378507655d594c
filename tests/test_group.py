"""Group Replacement and Group Second Chance (Section 3.3)."""

import dataclasses
import hashlib

import pytest

from repro.buffer.pool import BufferPool
from repro.db.page import Page
from repro.errors import CacheError
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.mvfifo import MvFifoCache
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
        assert stats.seq_write_ops == 1
        assert stats.seq_write_pages == DEPTH

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
        gr.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        read_pages = gr.flash.device.stats.seq_read_pages
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
        assert 0 not in gr.directory.valid_pos  # evicted anyway


class TestGroupSecondChance:
    def test_referenced_pages_survive_replacement(self, gsc):
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.lookup_fetch(0)
        gsc.lookup_fetch(2)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert 0 in gsc.directory.valid_pos
        assert 2 in gsc.directory.valid_pos
        assert 1 not in gsc.directory.valid_pos

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
        assert 0 in gsc.directory.valid_pos

    def test_all_referenced_batch_sacrifices_front(self, gsc):
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        for i in range(DEPTH):
            gsc.lookup_fetch(i)
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert 0 not in gsc.directory.valid_pos  # sacrificed
        for i in range(1, DEPTH):
            assert i in gsc.directory.valid_pos

    def test_pull_callback_fills_the_write_batch(self, gsc):
        pulled_log = []

        def pull(n):
            pulled_log.append(n)
            return [make_frame(500 + i, dirty=True, fdirty=True) for i in range(n)]

        gsc.set_pull_callback(pull)
        fill(gsc, CAPACITY, dirty=False)
        gsc.finish_checkpoint()
        gsc.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert pulled_log == [DEPTH - 1]  # no survivors: batch minus incoming
        assert 500 in gsc.directory.valid_pos
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
        valid = {i for i in range(CAPACITY + DEPTH) if i in gsc.directory.valid_pos}
        gsc.crash()
        gsc.recover()
        restored = {
            i for i in range(CAPACITY + DEPTH) if i in gsc.directory.valid_pos
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

    def test_victims_reach_disk_before_the_batch_writes_flash(self, cache, monkeypatch):
        """A victim's disk copy lands before any re-enqueue or DRAM pull of
        its batch can restage its flash slot."""
        for page_id in range(1, DEPTH - 2):
            cache.lookup_fetch(page_id)  # survivors 1-5; 0, 6 and 7 are victims
        writes = []

        def logged(role, write):
            def wrapper(lba, npages=1):
                writes.append(role)
                return write(lba, npages)
            return wrapper

        for role in ("flash", "disk"):
            device = getattr(cache, role).device
            monkeypatch.setattr(device, "write", logged(role, device.write))
        cache.on_dram_evict(make_frame(100, dirty=True, fdirty=True))
        assert writes.count("disk") == 3
        # The fourth survivor re-enqueued flushed the staging run and the metadata.
        assert writes[3:].count("flash") >= 2
        assert writes[:3] == ["disk"] * 3

    def test_the_incoming_page_keeps_its_superseded_copy(self, cache):
        def pull(n):
            return [make_frame(500 + i, dirty=True, fdirty=True) for i in range(n)]

        cache.set_pull_callback(pull)
        newer = BufferPool(1).admit(
            Page(7, lsn=999, slots={0: ("newer",)}), dirty=True, fdirty=True
        )
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


# -- the batched dequeue charges what the page-at-a-time one charged -----------

#: policy -> digest of a TINY churn cell (the ``RunResult`` and every
#: device's ``IOStats``, busy time included), computed when the dequeue still
#: read and wrote back one page at a time.  Every backend must reproduce it.
SIM_DIGESTS = {
    "face+gr": "40abaab02576e867629824a6954620f6ccdacac6c9524ada70288598bae0629c",
    "face+gsc": "8e602b1f29366688cf2d730f86b533d980c6c4dba57a0b50eeb9181720513210",
}


def churn_cell_digest(policy: str, backend: str) -> tuple[str, object]:
    """``(digest, runner)`` of a from-scratch TINY ycsb churn cell whose
    256-page flash queue wraps about twenty times, with checkpoints."""
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.parallel import CellSpec
    from repro.sim.runner import ExperimentRunner
    from repro.tpcc.scale import TINY

    spec = CellSpec.from_config(("pin",), ExperimentConfig(
        scale=TINY, seed=5, policy=policy, page_store=backend, workload="ycsb",
        workload_knobs={"n_keys": 20_000, "update_fraction": 0.9},
        checkpoint_interval=0.5, measure_transactions=600, warmup_min=200, warmup_max=200,
    ))
    runner = ExperimentRunner(spec.config, spec.scale, seed=5, workload=spec.workload_spec())
    result = spec.resolve_scenario().execute(runner)
    dbms = runner.dbms
    digest = hashlib.sha256(repr(dataclasses.replace(result, name="", obs=None)).encode())
    for device in (dbms.flash.device, dbms.disk.device, dbms.log.device):
        digest.update(repr(device.stats).encode())
    return digest.hexdigest(), runner


@pytest.mark.parametrize("backend", ["memory", "mmap", "sqlite"])
@pytest.mark.parametrize("policy", list(SIM_DIGESTS))
def test_the_batched_dequeue_charges_every_device_as_before(monkeypatch, policy, backend):
    moved = {"read": 0, "written": 0}
    read_slots, write_disks = MvFifoCache._read_slots, GroupReplacementCache._write_disks

    def counted_read_slots(self, positions):
        moved["read"] += len(positions)
        return read_slots(self, positions)

    def counted_write_disks(self, images):
        moved["written"] += len(images)
        return write_disks(self, images)

    monkeypatch.setattr(MvFifoCache, "_read_slots", counted_read_slots)
    monkeypatch.setattr(GroupReplacementCache, "_write_disks", counted_write_disks)
    digest, runner = churn_cell_digest(policy, backend)
    cache = runner.dbms.cache
    # The run proves something: the queue wrapped, dirty victims were
    # written back in batches and, under GSC, survivors were re-read.
    assert cache.directory.front > 10 * cache.capacity
    assert moved["written"] > 1000
    if policy == "face+gsc":
        assert moved["read"] > moved["written"]
    assert digest == SIM_DIGESTS[policy]
