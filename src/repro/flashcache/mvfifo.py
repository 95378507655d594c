"""Multi-Version FIFO flash cache — the core FaCE policy (Algorithm 1).

The cache region of the flash device is a circular queue:

* **Enqueue on DRAM eviction.**  A dirty (``fdirty``) page is enqueued
  unconditionally; a clean page only if no identical copy is already cached
  (conditional enqueue).  Enqueueing invalidates the previous version —
  a metadata-only operation, never an I/O.  All enqueues land at the rear,
  so flash writes are append-only/sequential.
* **Dequeue at the front.**  A dequeued page is written to disk only if it
  is both *valid* (newest version) and *dirty* (newer than disk); stale
  versions and clean pages are discarded for free.  This is how write-back
  plus multi-versioning converts many disk writes into sequential flash
  writes followed by a single deferred disk write.
* **Recovery.**  Every enqueue is recorded in the persistent metadata
  directory (:mod:`repro.flashcache.metadata`); dirty pages staged in the
  cache count as propagated to the persistent database (Section 4).
"""

from __future__ import annotations

from repro.buffer.frame import Frame
from repro.db.page import PageImage
from repro.errors import CacheError
from repro.obs import OBS
from repro.flashcache.base import FlashCacheBase, RecoveryTimings
from repro.flashcache.directory import DIRTY, REFERENCED, VALID, FifoDirectory
from repro.flashcache.metadata import CacheSlotImage, MetadataManager, unwrap_image
from repro.storage.volume import Volume

_tuple_new = tuple.__new__


class MvFifoCache(FlashCacheBase):
    """Plain FaCE: mvFIFO replacement, one-slot-at-a-time dequeue."""

    name = "FaCE"

    def __init__(
        self,
        flash: Volume,
        disk: Volume,
        capacity: int,
        segment_entries: int = 64_000,
        cache_clean: bool = True,
        write_through: bool = False,
    ) -> None:
        """``cache_clean`` and ``write_through`` are the Section 3.2 design
        alternatives ("Caching Clean and Dirty", "Write-Back than
        Write-Through"), kept as switches for the ablation benchmarks; the
        paper's choices — cache both, write back — are the defaults."""
        super().__init__(flash, disk)
        self.cache_clean = cache_clean
        self.write_through = write_through
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1 page, got {capacity}")
        meta_pages = flash.capacity_pages - capacity
        if meta_pages < 2:
            raise CacheError(
                f"flash volume of {flash.capacity_pages} pages leaves no room "
                f"for metadata beyond a {capacity}-page cache region"
            )
        self.capacity = capacity
        self.directory = FifoDirectory(capacity)
        # Restart correctness requires the unflushed metadata tail (always
        # < segment_entries enqueues) to fit inside the two-segment rear
        # scan *before the queue can wrap*, i.e. segment_entries <=
        # capacity/2.  The paper's configuration satisfies this by far
        # (64,000-entry segments vs. million-page caches); tiny test caches
        # get clamped.
        effective_segment = max(1, min(segment_entries, capacity // 2))
        self.metadata = MetadataManager(
            flash,
            cache_capacity=capacity,
            meta_base=capacity,
            meta_pages=meta_pages,
            segment_entries=effective_segment,
        )
        # The rear run not yet on flash: ``_staged[i]`` is the slot of
        # position ``_staged_start + i``.  Plain mvFIFO writes through and
        # leaves it empty; the batched subclasses fill it.
        self._staged: list[CacheSlotImage] = []
        self._staged_start = 0
        # The queue front from before the dequeue of the ``_make_room`` in
        # progress, ``None`` outside one: the front a metadata flush may
        # persist until the incoming page is in the directory (``_enqueue``).
        self._held_front: int | None = None

    # -- read path ------------------------------------------------------------

    def lookup_fetch(self, page_id: int) -> tuple[PageImage, bool] | None:
        self.stats.lookups += 1
        directory = self.directory
        position = directory.valid_pos.get(page_id)
        if position is None:
            return None
        flags = directory.flags
        physical = position % self.capacity
        slot_flags = flags[physical] | REFERENCED
        flags[physical] = slot_flags
        # _read_slot(position), inline: this is once per flash hit.
        offset = position - self._staged_start
        staged = self._staged
        if 0 <= offset < len(staged):
            image = staged[offset].image  # still in RAM: no flash I/O
        else:
            slot = self.flash.read_page(physical)
            image = slot.image if type(slot) is CacheSlotImage else unwrap_image(slot)
        self.stats.hits += 1
        return image, bool(slot_flags & DIRTY)

    def _read_slot(self, position: int, timed: bool = True) -> PageImage:
        """The page at a live position: from the staged run if it is still
        there, else from flash — charged as one page read unless a batch
        read already paid for the transfer (``timed=False``)."""
        offset = position - self._staged_start
        staged = self._staged
        if 0 <= offset < len(staged):
            return staged[offset].image  # still in RAM: no flash I/O
        physical = position % self.capacity
        slot = self.flash.read_page(physical) if timed else self.flash.peek(physical)
        if type(slot) is CacheSlotImage:
            return slot.image
        return unwrap_image(slot)

    def _read_slots(self, positions: list[int]) -> list[PageImage]:
        """The pages at live ``positions`` whose transfer a batch read
        already paid for: staged ones from RAM, the rest from flash with
        one store call."""
        if not positions:
            return []
        staged, start = self._staged, self._staged_start
        count, capacity = len(staged), self.capacity
        on_flash = iter(self.flash.peek_many(
            [position % capacity for position in positions
             if not 0 <= position - start < count]
        ))
        images = []
        for position in positions:
            offset = position - start
            if 0 <= offset < count:
                images.append(staged[offset].image)
                continue
            slot = next(on_flash)
            images.append(slot.image if type(slot) is CacheSlotImage else unwrap_image(slot))
        return images

    def staged_slot(self, position: int) -> CacheSlotImage | None:
        """The slot image of ``position`` while it is staged in RAM."""
        offset = position - self._staged_start
        staged = self._staged
        return staged[offset] if 0 <= offset < len(staged) else None

    # -- write path -----------------------------------------------------------

    def on_dram_evict(self, frame: Frame) -> None:
        """Algorithm 1's enqueue rule: unconditional when the DRAM copy is
        newer than the cached one (``fdirty``), conditional — skip if an
        identical copy is already cached — otherwise."""
        is_dirty = frame.dirty or frame.fdirty
        stats = self.stats
        if is_dirty:
            stats.dirty_evictions += 1
        else:
            stats.clean_evictions += 1
        if OBS.enabled:
            name = "evictions.dirty" if is_dirty else "evictions.clean"
            self._obs_counter(name).inc()
        valid_pos = self.directory.valid_pos
        if is_dirty and self.write_through:
            # Ablation: write-through pays a disk write per dirty eviction
            # and the cached copy enters in sync with disk.
            image = frame.page.to_image()
            self._write_disk(image)
            if frame.fdirty or frame.page_id not in valid_pos:
                self._enqueue(image, dirty=False)
            else:
                stats.skipped_enqueues += 1
            return
        if not is_dirty and not self.cache_clean:
            return  # ablation: dirty-only admission discards clean victims
        if frame.fdirty or frame.page_id not in valid_pos:
            self._enqueue(frame.page.to_image(), is_dirty)
        else:
            stats.skipped_enqueues += 1
            if OBS.enabled:
                self._obs_counter("enqueue.skipped").inc()

    def _enqueue(self, image: PageImage, dirty: bool) -> None:
        directory = self.directory
        page_id = image.page_id
        capacity = self.capacity
        # Invalidate the previous version *before* choosing a victim: if the
        # front slot is that very version it is now discarded for free
        # instead of being redundantly flushed to disk.  The write below
        # looks the page up again.
        superseded = directory.valid_pos.pop(page_id, None)
        if superseded is not None:
            directory.flags[superseded % capacity] &= ~VALID
        held = self._held_front
        if directory.rear - directory.front >= capacity:
            # The dequeued slots may hold the only durable copy of a page
            # whose newer version is not yet enqueued: a GSC survivor, or
            # this very page.  Enqueues inside ``_make_room`` (re-enqueued
            # survivors, DRAM pulls) can flush the metadata, which must keep
            # claiming those slots until this page is in the directory.
            if held is None:
                self._held_front = directory.front
            self._make_room(1)
        # Write the ring at ``rear`` (room was just made): the new slot is
        # the page's one valid version.  The second look-up is load-bearing:
        # making room can enqueue this very page again (GSC pulls it from
        # DRAM while a checkpoint is flushing it), which this version must
        # supersede — tests/test_gsc_checkpoint_pull.py.
        flags, valid_pos = directory.flags, directory.valid_pos
        previous = valid_pos.get(page_id)
        if previous is not None:
            flags[previous % capacity] &= ~VALID
        position = directory.rear
        physical = position % capacity
        directory.page_ids[physical] = page_id
        directory.lsns[physical] = image.lsn
        flags[physical] = (VALID | DIRTY) if dirty else VALID
        valid_pos[page_id] = position
        directory.rear = position + 1
        # CacheSlotImage(position, dirty, image) without the NamedTuple's
        # Python-level ``__new__``: one slot is built per enqueue.
        self._write_slot(position, _tuple_new(CacheSlotImage, (position, dirty, image)))
        self._held_front = held
        metadata = self.metadata
        if directory.rear - metadata.persisted_rear >= metadata.segment_entries:
            # Write ordering: metadata must never claim a position whose data
            # page is not yet on flash, or a crash would resurrect whatever
            # older page the physical slot still holds — and never release a
            # position whose page has no newer copy on flash yet (above).
            self._flush_staging()
            metadata.flush_segment(directory, directory.front if held is None else held)
        self.stats.flash_writes += 1
        if OBS.enabled:
            self._obs_counter("enqueue.dirty" if dirty else "enqueue.clean").inc()
            if superseded is not None:
                self._obs_counter("invalidations").inc()

    def _write_slot(self, position: int, slot: CacheSlotImage) -> None:
        """Physically append one slot at the rear (sequential flash write)."""
        self.flash.write_page(position % self.capacity, slot)

    def _flush_staging(self) -> None:
        """Plain mvFIFO writes through: nothing is ever staged."""

    def _make_room(self, needed: int) -> None:
        """Dequeue until at least ``needed`` slots are free, charging each
        slot the I/O of the paper's one-at-a-time rule (flash read + disk
        write only for valid-dirty victims)."""
        deficit = needed - self.directory.free_slots
        if deficit > 0:
            self._retire(self.directory.dequeue_batch(deficit), timed=True)

    def _retire(self, batch: list[tuple[int, int]], timed: bool) -> None:
        """Dispose of dequeued ``(position, flags)`` slots: valid-dirty ones
        are written to disk, everything else is discarded for free.

        ``timed``: each victim is read from flash and written to disk in
        turn, one page at a time.  Otherwise a batch read already paid for
        the flash transfer, and the victims move as one batch."""
        obs = OBS.enabled
        victims = []
        for position, slot_flags in batch:
            if slot_flags & DIRTY:
                if slot_flags & VALID:
                    victims.append(position)
                else:
                    self.stats.invalidated_dirty += 1
                    if obs:
                        self._obs_counter("dequeue.invalidated_dirty").inc()
            elif obs:
                self._obs_counter("dequeue.discarded").inc()
        if timed:
            for position in victims:
                self._write_disk(self._read_slot(position))
        else:
            self._write_disks(self._read_slots(victims))
        if obs and victims:
            self._obs_counter("dequeue.flushed").inc(len(victims))

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_frame(self, frame: Frame) -> None:
        """Database checkpoint: flush the dirty frame *into the flash cache*
        (Section 4.1) — disk is not touched.

        After this the DRAM and flash copies are synced (``fdirty`` drops)
        but disk may still be stale (``dirty`` is preserved on the frame and
        carried by the cache slot).
        """
        if frame.fdirty or frame.page_id not in self.directory.valid_pos:
            self._enqueue(frame.page.to_image(), dirty=frame.dirty)
            self.stats.checkpoint_writes += 1
            if OBS.enabled:
                self._obs_counter("checkpoint.writes").inc()
        frame.fdirty = False

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> None:
        self._staged.clear()
        self.directory.wipe()
        self.metadata.crash()

    def recover(self) -> RecoveryTimings:
        return self.metadata.recover(self.directory)

    # -- introspection ------------------------------------------------------------

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of live cache slots that hold superseded versions."""
        return self.directory.duplicate_fraction
