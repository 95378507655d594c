"""Batched mvFIFO replacement: Group Replacement and Group Second Chance.

Section 3.3 of the paper: replacing flash-cache pages one at a time wastes
the SSD's internal parallelism.  Both optimisations bound the replacement
cost by operating on batches of ``scan_depth`` pages (defaulting to 64, one
flash block):

* **GR** dequeues ``scan_depth`` front slots with a single batched read,
  flushes the valid-dirty ones to disk, discards the rest — no second
  chances.
* **GSC** additionally re-enqueues pages whose reference flag is set (they
  were hit while cached), and tops the write batch up with pages *pulled
  from the DRAM buffer's LRU tail* — the analogue of Linux writeback
  daemons / Oracle DBWR the paper cites — so that enqueues are also written
  as one batch-sized sequential I/O.

Both use a RAM staging buffer for the rear of the queue so enqueues are
written ``scan_depth`` pages at a time.  Enqueues take consecutive
positions, so the buffer is a list plus the position of its first element
(``MvFifoCache.staged_slot`` is the look-up).  Staged pages are volatile:
a crash loses them, and the recovery tail-scan treats never-flushed slots
as not cached.  They are flushed at every database checkpoint and before
every metadata segment.  A page staged on its way from DRAM is covered by
the WAL, as the DRAM buffer is; one staged on its way from the flash queue
— a GSC survivor, or the incoming page whose old version the batch
discarded — is not, so the persisted queue front stays behind the batch
until the incoming page is enqueued (``MvFifoCache._enqueue``, DESIGN.md
§7).
"""

from __future__ import annotations

from repro.db.page import PageImage
from repro.errors import CacheError
from repro.obs import OBS
from repro.flashcache.directory import DIRTY, REFERENCED, VALID
from repro.flashcache.metadata import CacheSlotImage
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.ssd import PAGES_PER_BLOCK
from repro.storage.volume import Volume


class GroupReplacementCache(MvFifoCache):
    """FaCE + GR: batched dequeue and batched (staged) enqueue."""

    name = "FaCE+GR"

    def __init__(
        self,
        flash: Volume,
        disk: Volume,
        capacity: int,
        segment_entries: int = 64_000,
        scan_depth: int = PAGES_PER_BLOCK,
        cache_clean: bool = True,
        write_through: bool = False,
    ) -> None:
        super().__init__(
            flash, disk, capacity, segment_entries,
            cache_clean=cache_clean, write_through=write_through,
        )
        if scan_depth < 1:
            raise CacheError(f"scan depth must be >= 1, got {scan_depth}")
        if capacity < 2 * scan_depth:
            raise CacheError(
                f"cache of {capacity} pages too small for scan depth "
                f"{scan_depth} (need >= {2 * scan_depth})"
            )
        self.scan_depth = scan_depth

    # -- staged writes ----------------------------------------------------------

    def _write_slot(self, position: int, slot: CacheSlotImage) -> None:
        staged = self._staged
        if not staged:
            self._staged_start = position
        staged.append(slot)
        if len(staged) >= self.scan_depth:
            self._flush_staging()

    def _flush_staging(self) -> None:
        """Write the staged rear run as one (or two, on wrap) batch I/O."""
        staged = self._staged
        if not staged:
            return
        if staged[-1].position != self._staged_start + len(staged) - 1:
            raise CacheError("staged run is not consecutive")
        if OBS.enabled:
            self._obs_counter("staging.flushes").inc()
            OBS.gauge(f"{self.obs_prefix}.staging.batch_size").set(len(staged))
        physical = self._staged_start % self.capacity
        until_wrap = self.capacity - physical
        if len(staged) <= until_wrap:
            self.flash.write_batch(physical, staged)
        else:
            self.flash.write_batch(physical, staged[:until_wrap])
            self.flash.write_batch(0, staged[until_wrap:])
        staged.clear()

    # -- batched dequeue ---------------------------------------------------------

    def _make_room(self, needed: int) -> None:
        directory = self.directory
        # ``directory.free_slots < needed``, without two property calls.
        while directory.rear - directory.front > self.capacity - needed:
            self._batch_dequeue()

    def _dequeue_front(self) -> list[tuple[int, int]]:
        """Take ``scan_depth`` slots off the front, charging one batch-sized
        sequential read of the region (two where it wraps the queue)."""
        directory = self.directory
        depth = min(self.scan_depth, directory.rear - directory.front)
        front_physical = directory.front % self.capacity
        span = min(depth, self.capacity - front_physical)
        device = self.flash.device
        device.read(front_physical, span)
        if span < depth:
            device.read(0, depth - span)
        if OBS.enabled:
            OBS.gauge(f"{self.obs_prefix}.dequeue.batch_size").set(depth)
        return directory.dequeue_batch(depth)

    def _batch_dequeue(self) -> None:
        """GR: one batched read of the front, flush valid-dirty, discard rest."""
        self._retire(self._dequeue_front(), timed=False)

    # -- checkpoint ---------------------------------------------------------------

    def finish_checkpoint(self) -> None:
        """A checkpoint implies persistence of everything checked in."""
        self._flush_staging()


class GroupSecondChanceCache(GroupReplacementCache):
    """FaCE + GSC: GR plus second chances and DRAM LRU-tail pulls."""

    name = "FaCE+GSC"

    def _batch_dequeue(self) -> None:
        obs = OBS.enabled
        batch = self._dequeue_front()
        moved: list[tuple[int, int]] = []  # valid and referenced or dirty
        for position, slot_flags in batch:
            if slot_flags & VALID:
                if slot_flags & (REFERENCED | DIRTY):
                    moved.append((position, slot_flags))
                # valid, clean, unreferenced: discarded for free.
            elif slot_flags & DIRTY:
                self.stats.invalidated_dirty += 1
                if obs:
                    self._obs_counter("dequeue.invalidated_dirty").inc()
        survivors: list[tuple[PageImage, bool]] = []  # (image, dirty)
        victims: list[PageImage] = []  # valid, dirty, unreferenced
        images = self._read_slots([position for position, _ in moved])
        for (_, slot_flags), image in zip(moved, images):
            if slot_flags & REFERENCED:
                survivors.append((image, bool(slot_flags & DIRTY)))
            else:
                victims.append(image)
        # The victims' disk copies land before any survivor is re-enqueued
        # or any DRAM page pulled: either may restage a victim's slot.
        self._write_disks(victims)
        if obs and victims:
            self._obs_counter("dequeue.flushed").inc(len(victims))
        depth = len(batch)
        if len(survivors) >= depth:
            # Rare case (paper): every page in the batch was referenced —
            # the frontmost one is sacrificed to make room.
            image, dirty = survivors.pop(0)
            if dirty:
                self._write_disk(image)
        if obs and survivors:
            self._obs_counter("second_chances").inc(len(survivors))
        for image, dirty in survivors:
            self._enqueue(image, dirty)  # re-enqueue with a fresh ref flag
        self._pull_from_dram(depth, len(survivors))

    def _pull_from_dram(self, depth: int, survivor_count: int) -> None:
        """Fill the remainder of the write batch from the DRAM LRU tail.

        One slot is reserved for the incoming page that triggered the
        replacement; pulled frames follow the normal (conditional) enqueue
        rules, so clean pages with identical cached copies cost nothing.
        """
        if self._pull_callback is None:
            return
        room = self.directory.free_slots - 1
        want = min(self.scan_depth - survivor_count - 1, room)
        if want <= 0:
            return
        for frame in self._pull_callback(want):
            self.on_dram_evict(frame)
            if OBS.enabled:
                self._obs_counter("dram_pulls").inc()
