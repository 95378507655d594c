"""The simulated DBMS: buffer manager + flash cache + WAL + recovery hooks.

This is the reproduction's equivalent of the paper's modified PostgreSQL.
The data path follows Figure 1 exactly:

1. Page request → DRAM buffer lookup (``bufferAlloc``).
2. On a DRAM miss, the flash cache is searched; a flash hit fetches from
   flash, otherwise the page comes from disk.
3. On DRAM eviction (``getFreeBuffer``), the victim is handed to the
   configured cache policy, which decides among flash enqueue / disk write /
   discard — all timing flows through the device models.
4. Database checkpoints flush dirty DRAM pages through the policy (to the
   flash cache for FaCE, to disk otherwise) and emit a checkpoint record.

Transactions get strict WAL treatment: every slot change is logged with
before/after images, the log is forced at commit and before any dirty page
leaves DRAM, and aborts roll back via logged compensating updates.

CPU time is charged per transaction and per page access; together with the
per-device busy times this feeds the bottleneck wall-clock model
(DESIGN.md §6) read through :meth:`resource_times` / :meth:`wall_clock`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from repro.buffer.frame import Frame
from repro.buffer.pool import BufferPool
from repro.core.config import CachePolicy, SystemConfig
from repro.core.policies import (
    build_database_device,
    build_flash_volume,
    build_log_device,
)
from repro.db.catalog import Catalog
from repro.db.heap import HeapFile, Rid
from repro.db.index import HashIndex
from repro.db.page import Page, PageImage
from repro.db.schema import TableSchema
from repro.errors import CatalogError, TransactionError
from repro.flashcache.registry import build_cache_from_config
from repro.obs import OBS
from repro.storage.backing import PageStore
from repro.storage.registry import build_page_store
from repro.storage.volume import Volume
from repro.wal.log import LogManager
from repro.wal.records import UpdateRecord

#: Builds a :class:`PageImage` with one C call (see its docstring).
_tuple_new = tuple.__new__


@dataclass
class Transaction:
    """Handle for one in-flight transaction."""

    txid: int
    begin_lsn: int = 0
    undo: list[UpdateRecord] = field(default_factory=list)
    finished: bool = False

    def _check_active(self) -> None:
        if self.finished:
            raise TransactionError(f"transaction {self.txid} already finished")


def _pull_frames(buffer: BufferPool, log: LogManager, n: int) -> list[Frame]:
    """GSC's LRU-tail pull hook: evictions with the WAL rule applied."""
    frames = buffer.pull_tail(n)
    for frame in frames:
        if frame.dirty or frame.fdirty:
            log.force_up_to(frame.page.lsn)
    return frames


class SimulatedDBMS:
    """A complete simulated database system under one :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.catalog = Catalog()
        self.disk = Volume(
            build_database_device(config),
            build_page_store(config, "disk", config.disk_capacity_pages),
        )
        # "Database stored entirely on the SSD" (Figure 4) means the WAL
        # shares the device too — PostgreSQL keeps pg_xlog inside the data
        # directory — so commit forces compete with data I/O on the one
        # flash device.
        shared = config.cache_policy is CachePolicy.SSD_ONLY
        self.log = LogManager(self.disk.device if shared else build_log_device(config))
        self._log_shares_database_device = shared
        self.flash = build_flash_volume(config)
        self.cache = build_cache_from_config(config, self.flash, self.disk)
        self.buffer = BufferPool(config.buffer_pages, config.buffer_policy)
        # Bound to the buffer and the log, never to ``self``: the cache holds
        # no reference back to the DBMS, so a finished system dies with its
        # runner by reference count (DESIGN.md §6).
        self._pull_frames = partial(_pull_frames, self.buffer, self.log)
        self.cache.set_pull_callback(self._pull_frames)
        self.tables: dict[str, HeapFile] = {}
        self.indexes: dict[str, HashIndex] = {}
        self._txid_counter = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self.cpu_time = 0.0
        self.committed = 0
        self.aborted = 0
        self.checkpoints = 0
        self._load_pages: dict[int, dict] | None = None
        self._in_recovery = False
        self._obs_lookup = None  # lazy (lookups, hits) counter pair

    # ------------------------------------------------------------------
    # schema & bulk load
    # ------------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, expected_rows: int, growth_factor: float = 1.0
    ) -> HeapFile:
        """Register a table and return its heap file."""
        info = self.catalog.create_table(schema, expected_rows, growth_factor)
        heap = HeapFile(info)
        self.tables[schema.name] = heap
        return heap

    def create_index(self, name: str, table: str, n_pages: int) -> HashIndex:
        """Register a hash index over ``table`` with ``n_pages`` buckets."""
        info = self.catalog.create_index(name, table, n_pages)
        index = HashIndex(info)
        self.indexes[name] = index
        return index

    def begin_load(self) -> None:
        """Enter bulk-load mode: pages are materialised in RAM and written
        to disk untimed at :meth:`finish_load` (initial population is not
        part of any measurement, per Section 5.2)."""
        self._load_pages = {}

    def _loading(self) -> dict[int, dict]:
        if self._load_pages is None:
            raise CatalogError("bulk load outside begin_load()/finish_load()")
        return self._load_pages

    def load_rows(self, table: str, rows: Sequence[tuple]) -> int:
        """Bulk-append ``rows``, one ``dict.update`` per page; returns the first
        row number (``HeapFile.rids`` gives the rids).  Never wraps: past the
        table's capacity it raises :class:`CatalogError` and changes nothing."""
        pages = self._loading()
        heap = self.tables[table]
        info, per_page = heap.info, heap.slots_per_page
        rownum = info.row_count
        end = rownum + len(rows)
        if end > heap.capacity_rows:
            raise CatalogError(f"{table!r}: {rownum} + {len(rows)} rows exceed "
                               f"its capacity of {heap.capacity_rows}")
        at = 0
        while rownum < end:
            page_offset, slot = divmod(rownum, per_page)
            take = min(per_page - slot, end - rownum)
            page_id = info.first_page + page_offset
            slots = pages.get(page_id)
            if slots is None:
                slots = pages[page_id] = {}
            slots.update(zip(range(slot, slot + take), rows[at : at + take]))
            at += take
            rownum += take
        first, info.row_count = info.row_count, end
        return first

    def load_index(self, index_name: str, entries: Iterable[tuple[tuple, Rid]]) -> None:
        """Bulk-insert ``(key, rid)`` entries, in order: one store each into
        its bucket page, :meth:`HashIndex.bucket_page`'s (a repeated key keeps
        its place, takes the new rid)."""
        pages = self._loading()
        bucket_page = self.indexes[index_name].bucket_page
        for key, rid in entries:
            page_id = bucket_page(key)
            slots = pages.get(page_id)
            if slots is None:
                slots = pages[page_id] = {}
            slots[key] = rid

    def finish_load(self) -> int:
        """Flush all loaded pages to the disk store (untimed); returns the
        number of distinct pages materialised."""
        pages = self._loading()
        for page_id, slots in pages.items():
            self.disk.store.put(page_id, _tuple_new(PageImage, (page_id, 0, slots)))
        self._load_pages = None
        return len(pages)

    def adopt_database_state(
        self,
        catalog: Catalog,
        tables: dict[str, HeapFile],
        indexes: dict[str, HashIndex],
        disk_image: Mapping[int, Any] | PageStore,
    ) -> None:
        """Install a pre-built database (schema + loaded pages) wholesale.

        The warm-state fork path (:mod:`repro.sim.warmstate`) loads TPC-C
        once per (scale, seed) and hands every subsequent system a private
        copy of the catalog/heap/index graph plus the loaded disk image —
        equivalent to :meth:`begin_load` … :meth:`finish_load` without
        re-running the population logic.  ``disk_image`` is the
        ``{lba: image}`` map, or a persistent store of the disk's backend
        whose file is copied.  Must be called on a freshly built system,
        before any transaction has run.
        """
        if self.committed or self.aborted or self._active or self._load_pages is not None:
            raise CatalogError("adopt_database_state on a system already in use")
        self.catalog = catalog
        self.tables = tables
        self.indexes = indexes
        if isinstance(disk_image, PageStore):
            self.disk.store.copy_from(disk_image)
        else:
            self.disk.store.adopt_slots(disk_image)

    @property
    def db_pages(self) -> int:
        """Database footprint in pages (tables + indexes, as allocated)."""
        return self.catalog.total_pages

    # ------------------------------------------------------------------
    # page access path (Figure 1)
    # ------------------------------------------------------------------

    def read_page(self, page_id: int) -> Page:
        """Fetch a page for reading: :meth:`_get_frame`'s work, in this frame
        (every row and index read of a transaction comes through here)."""
        self.cpu_time += self.config.cpu_per_page_access
        frame = self.buffer.lookup(page_id)
        if frame is None:
            frame = self._fetch_miss(page_id)
        return frame.page

    def _get_frame(self, page_id: int) -> Frame:
        self.cpu_time += self.config.cpu_per_page_access
        frame = self.buffer.lookup(page_id)
        if frame is not None:
            return frame
        return self._fetch_miss(page_id)

    def _fetch_miss(self, page_id: int) -> Frame:
        # DRAM miss: search the flash cache, then disk (Figure 1, steps 3-4).
        # Flat on purpose (~40 calls per transaction): it calls only the
        # entry points of the layers below (DESIGN.md §6, host cost of a miss).
        cache = self.cache
        flash_hit = cache.lookup_fetch(page_id)
        if OBS.enabled:
            handles = self._obs_lookup
            if handles is None:
                prefix = cache.obs_prefix
                handles = self._obs_lookup = (
                    OBS.counter(f"{prefix}.lookups"),
                    OBS.counter(f"{prefix}.hits"),
                )
            handles[0].inc()
            if flash_hit is not None:
                handles[1].inc()
        if flash_hit is not None:
            image, dirty = flash_hit  # synced with flash; disk may be stale
        else:
            disk = self.disk
            image = disk.peek(page_id)
            disk.device.read(page_id, 1)
            if image is None:
                # Reading an allocated-but-never-written page: a real system
                # reads zeroes; we materialise an empty page at the same cost.
                image = _tuple_new(PageImage, (page_id, 0, {}))
            cache.on_fetch_from_disk(image)
            dirty = False  # from disk: both flags drop
        buffer = self.buffer
        victim = buffer.make_room()
        if victim is not None:
            # _evict(), inline: WAL discipline, then the policy.  A victim
            # whose LSN is already durable needs no force_up_to call.
            if victim.dirty or victim.fdirty:
                lsn = victim.page.lsn
                log = self.log
                if lsn > log.flushed_lsn:
                    log.force_up_to(lsn)
            cache.on_dram_evict(victim)
        return buffer.admit(image.to_page(), dirty)

    def _evict(self, frame: Frame) -> None:
        """Route one DRAM eviction through WAL discipline and the policy."""
        if frame.dirty or frame.fdirty:
            self.log.force_up_to(frame.page.lsn)
        self.cache.on_dram_evict(frame)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        tx = Transaction(txid=next(self._txid_counter))
        record = self.log.log_begin(tx.txid)
        tx.begin_lsn = record.lsn
        self._active[tx.txid] = tx
        return tx

    def commit(self, tx: Transaction) -> None:
        tx._check_active()
        self.log.commit(tx.txid)
        self._finish(tx)
        self.committed += 1

    def abort(self, tx: Transaction) -> None:
        """Roll back via logged compensating updates, then mark aborted."""
        tx._check_active()
        for record in reversed(tx.undo):
            self._apply_logged_update(tx, record.page_id, record.slot, record.before)
        self.log.log_abort(tx.txid)
        self.log.force()
        self._finish(tx)
        self.aborted += 1

    def _finish(self, tx: Transaction) -> None:
        tx.finished = True
        tx.undo.clear()
        self._active.pop(tx.txid, None)
        self.cpu_time += self.config.cpu_per_tx

    # -- row operations -----------------------------------------------------

    def update_slot_tx(
        self, tx: Transaction, page_id: int, slot: Any, after: tuple | None
    ) -> None:
        """Log and apply one slot change under ``tx``."""
        if tx.finished:
            tx._check_active()  # raises
        record = self._apply_logged_update(tx, page_id, slot, after)
        tx.undo.append(record)

    def _apply_logged_update(
        self, tx: Transaction, page_id: int, slot: Any, after: tuple | None
    ) -> UpdateRecord:
        frame = self._get_frame(page_id)
        page = frame.page
        log = self.log
        record = log.log_update(tx.txid, page_id, slot, page._rows.get(slot), after)
        if after is None:
            page.delete(slot, record.lsn)
        else:
            page.put(slot, after, record.lsn)
        frame.dirty = frame.fdirty = True  # newer than both durable copies
        fpw_done = log._fpw_done
        if page_id not in fpw_done:  # LogManager.take_fpw, inlined
            # Full-page write: the page's first update since the last
            # checkpoint ships the whole post-update page in the log, so
            # redo can install it without reading the base copy.
            fpw_done.add(page_id)
            log.attach_full_page_image(record, page.to_image())
        return record

    def fetch_row(self, table: str, rid: Rid) -> tuple | None:
        """Read one row by record id."""
        return self.read_page(rid[0])._rows.get(rid[1])

    def update_row(self, tx: Transaction, table: str, rid: Rid, row: tuple) -> None:
        """Replace the row at ``rid``."""
        self.update_slot_tx(tx, rid[0], rid[1], row)

    def insert_row(self, tx: Transaction, table: str, row: tuple) -> Rid:
        """Append a row to ``table`` and return its record id."""
        rid = self.tables[table].append_rid()
        self.update_slot_tx(tx, rid[0], rid[1], row)
        return rid

    # -- index operations ------------------------------------------------------

    def index_lookup(self, index_name: str, key: tuple) -> Rid | None:
        """Probe a hash index (charges the bucket-page access)."""
        page = self.read_page(self.indexes[index_name].bucket_page(key))
        entry = page._rows.get(key)
        return (entry[0], entry[1]) if entry is not None else None

    def index_insert(self, tx: Transaction, index_name: str, key: tuple, rid: Rid) -> None:
        index = self.indexes[index_name]
        self.update_slot_tx(tx, index.bucket_page(key), key, (rid[0], rid[1]))

    def index_delete(self, tx: Transaction, index_name: str, key: tuple) -> None:
        index = self.indexes[index_name]
        self.update_slot_tx(tx, index.bucket_page(key), key, None)

    # ------------------------------------------------------------------
    # checkpointing (Section 4.1)
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush all dirty DRAM pages through the policy; emit the record.

        Returns the number of frames flushed.  Under FaCE the flushes land
        in the flash cache (sequential flash writes); under every other
        policy they are disk writes — the cost contrast of Section 2.3.
        """
        dirty = self.buffer.dirty_frames()
        self.log.force()  # WAL rule for every page about to be flushed
        for frame in dirty:
            self.cache.checkpoint_frame(frame)
        self.cache.finish_checkpoint()
        oldest = min((tx.begin_lsn for tx in self._active.values()), default=None)
        self.log.log_checkpoint(frozenset(self._active), oldest_needed_lsn=oldest)
        self.checkpoints += 1
        OBS.trace(
            "dbms.checkpoint",
            sim_time=self.wall_clock(),
            frames_flushed=len(dirty),
            policy=self.cache.name,
        )
        return len(dirty)

    # ------------------------------------------------------------------
    # crash (Section 5.5's `kill -9`)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state: DRAM buffer, log tail, RAM metadata."""
        self.buffer.wipe()
        self.log.crash()
        self.cache.crash()
        self._active.clear()

    # ------------------------------------------------------------------
    # timing / metrics
    # ------------------------------------------------------------------

    def resource_times(self) -> dict[str, float]:
        """Cumulative busy seconds of every overlappable resource."""
        times = {
            "cpu": self.cpu_time,
            "disk": self.disk.device.busy_time,
            # When the WAL shares the database device (SSD-only), its
            # traffic is already inside the "disk" figure.
            "log": 0.0
            if self._log_shares_database_device
            else self.log.device.busy_time,
        }
        times["flash"] = self.flash.device.busy_time if self.flash is not None else 0.0
        return times

    def wall_clock(self) -> float:
        """Bottleneck-resource wall clock (DESIGN.md §6)."""
        return max(self.resource_times().values())

    def reset_measurements(self) -> None:
        """Zero all counters after warm-up (Section 5.2: steady state)."""
        self.disk.device.reset_stats()
        if self.flash is not None:
            self.flash.device.reset_stats()
        self.log.device.reset_stats()
        self.buffer.stats.reset()
        self.cache.reset_stats()
        self.cpu_time = 0.0
        self.committed = 0
        self.aborted = 0
