"""Shared fixtures and helpers for the FaCE reproduction test suite."""

from __future__ import annotations

import gc
import random

import pytest

from repro.buffer.frame import Frame
from repro.buffer.pool import BufferPool
from repro.core.config import CachePolicy, SystemConfig
from repro.core.dbms import SimulatedDBMS
from repro.db.page import Page, PageImage
from repro.db.schema import TableSchema, int_col, str_col
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume

#: A small schema used by direct-engine tests (not TPC-C).
KV_SCHEMA = TableSchema(
    name="kv",
    columns=(int_col("k"), str_col("v", 16)),
    primary_key=("k",),
    slots_per_page=4,
)


@pytest.fixture(autouse=True)
def _no_shared_trace_cache(monkeypatch):
    """No test persists traces into the machine-wide cache under the system
    temp directory; a test that needs a cache points REPRO_TRACE_CACHE at
    its own ``tmp_path``."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")


@pytest.fixture(autouse=True)
def _collector_left_as_found():
    """Fail any test that leaves the cyclic collector on or off unlike it
    found it: every cell pauses the collector, and a test that toggles it
    by hand must put it back."""
    was_enabled = gc.isenabled()
    yield
    if gc.isenabled() != was_enabled:
        (gc.enable if was_enabled else gc.disable)()
        pytest.fail(f"test left gc.isenabled() {not was_enabled}, found {was_enabled}")


def make_image(page_id: int, lsn: int = 0, **slots) -> PageImage:
    """Build a PageImage with integer slots from kwargs like s0=('a',)."""
    parsed = {int(k[1:]): tuple(v) for k, v in slots.items()}
    return PageImage(page_id=page_id, lsn=lsn, slots=parsed)


def make_frame(page_id: int, dirty: bool = False, fdirty: bool = False) -> Frame:
    """A buffer frame holding a one-row page, for cache-policy tests,
    admitted the way the engine builds every frame."""
    page = Page(page_id, lsn=page_id * 10 + 1, slots={0: ("row", page_id)})
    return BufferPool(1).admit(page, dirty=dirty, fdirty=fdirty)


def fifo_cache(capacity: int) -> MvFifoCache:
    """A plain FaCE cache of ``capacity`` slots on fresh volumes."""
    flash = Volume(FlashDevice(MLC_SAMSUNG_470, capacity + 64))
    disk = Volume(DiskDevice(HDD_CHEETAH_15K, 4096))
    return MvFifoCache(flash, disk, capacity)


def enqueue_version(cache: MvFifoCache, page_id: int, lsn: int, dirty: bool) -> int:
    """Enqueue a version of ``page_id`` through the cache's own write path
    (making room first if the queue is full); returns its virtual position."""
    cache._enqueue(PageImage(page_id, lsn, {0: ("v", lsn)}), dirty)
    return cache.directory.valid_pos[page_id]


def dequeue_one(directory):
    """Remove the front slot; returns ``(position, SlotMeta)`` as it was.

    Single-slot dequeue is a batch of one on the directory; the meta
    snapshot is taken first because a dequeued slot is no longer readable.
    """
    meta = directory.meta_at(directory.front)
    ((position, _flags),) = directory.dequeue_batch(1)
    return position, meta


@pytest.fixture
def flash_volume() -> Volume:
    """A small MLC flash volume (256 cache-capable pages + headroom)."""
    return Volume(FlashDevice(MLC_SAMSUNG_470, 512))


@pytest.fixture
def disk_volume() -> Volume:
    """A small single-disk volume for cache-policy tests."""
    return Volume(DiskDevice(HDD_CHEETAH_15K, 4096))


def load_kv(dbms: SimulatedDBMS, n_keys: int) -> None:
    """Bulk-load keys ``0..n_keys-1`` into the kv table and its index."""
    dbms.begin_load()
    first = dbms.load_rows("kv", [(k, f"v{k}") for k in range(n_keys)])
    rids = dbms.tables["kv"].rids(first, n_keys)
    dbms.load_index("kv_pk", (((k,), rid) for k, rid in enumerate(rids)))
    dbms.finish_load()


def tiny_config(policy: CachePolicy = CachePolicy.FACE, **overrides) -> SystemConfig:
    """A minimal but complete system configuration for engine tests."""
    defaults = dict(
        buffer_pages=8,
        cache_policy=policy,
        cache_pages=64,
        segment_entries=32,
        scan_depth=8,
        n_disks=1,
        disk_capacity_pages=4096,
        log_capacity_pages=4096,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


@pytest.fixture
def kv_dbms() -> SimulatedDBMS:
    """A DBMS with one loaded 16-page key/value table (keys 0..63)."""
    dbms = SimulatedDBMS(tiny_config())
    dbms.create_table(KV_SCHEMA, expected_rows=64, growth_factor=2.0)
    dbms.create_index("kv_pk", "kv", n_pages=4)
    load_kv(dbms, 64)
    return dbms


def kv_dbms_with(policy: CachePolicy, n_keys: int = 64, **overrides) -> SimulatedDBMS:
    """Build the kv engine (keys ``0..n_keys-1``) under an arbitrary cache policy."""
    dbms = SimulatedDBMS(tiny_config(policy, **overrides))
    dbms.create_table(KV_SCHEMA, expected_rows=n_keys, growth_factor=2.0)
    dbms.create_index("kv_pk", "kv", n_pages=n_keys // 16)
    load_kv(dbms, n_keys)
    return dbms


#: Keys and flash-cache pages of :func:`gsc_miss_cell`.
MISS_CELL_KEYS = 1024
MISS_CELL_CACHE_PAGES = 32


def gsc_miss_cell() -> SimulatedDBMS:
    """A small ``face+gsc`` system in the paper's regime: the database
    (1,024 keys, ~580 pages) is 70x the 8-frame DRAM buffer and 18x the
    32-page flash queue, which therefore wraps within a few dozen misses."""
    return kv_dbms_with(
        CachePolicy.FACE_GSC,
        n_keys=MISS_CELL_KEYS,
        buffer_pages=8,
        cache_pages=MISS_CELL_CACHE_PAGES,
        scan_depth=8,
        segment_entries=8,
    )


def miss_cell_ops(dbms: SimulatedDBMS, steps: int, seed: int):
    """The cell's fixed workload — uniform keys, half reads, half updates —
    one operation per iteration; yields the 1-based step just executed."""
    rng = random.Random(seed)
    for step in range(1, steps + 1):
        k = rng.randrange(MISS_CELL_KEYS)
        if rng.random() < 0.5:
            kv_write(dbms, k, f"w{step}")
        else:
            kv_read(dbms, k)
        yield step


def kv_read(dbms: SimulatedDBMS, k: int) -> tuple | None:
    """Read key ``k`` through the full data path."""
    rid = dbms.index_lookup("kv_pk", (k,))
    return dbms.fetch_row("kv", rid) if rid is not None else None


def frame_of(dbms: SimulatedDBMS, k: int) -> Frame | None:
    """The DRAM frame of key ``k``'s heap page, if resident."""
    return dbms.buffer.peek(dbms.index_lookup("kv_pk", (k,))[0])


def push_out_of_dram(dbms: SimulatedDBMS, *keys: int) -> None:
    """Read other keys of the 64-key kv table until the heap pages of
    ``keys`` have left DRAM for the (FaCE) flash cache."""
    pages = {dbms.index_lookup("kv_pk", (k,))[0] for k in keys}
    for other in range(64):
        if all(dbms.buffer.peek(page_id) is None for page_id in pages):
            break
        if dbms.index_lookup("kv_pk", (other,))[0] not in pages:
            kv_read(dbms, other)
    for page_id in pages:
        assert dbms.buffer.peek(page_id) is None
        assert page_id in dbms.cache.directory.valid_pos


def kv_write(dbms: SimulatedDBMS, k: int, value: str, commit: bool = True):
    """Update key ``k`` in its own transaction; returns the transaction."""
    tx = dbms.begin()
    rid = dbms.index_lookup("kv_pk", (k,))
    dbms.update_row(tx, "kv", rid, (k, value))
    if commit:
        dbms.commit(tx)
    return tx
