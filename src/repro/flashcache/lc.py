"""Lazy Cleaning (LC) flash cache — the paper's primary baseline.

Models the design of Do et al. ("Turbocharging DBMS Buffer Pool Using
SSDs", SIGMOD 2011) as characterised in Sections 2.3 and 5.3:

* pages (clean *and* dirty) are cached **on exit** from the DRAM buffer;
* **write-back**: dirty pages go only to the flash cache, reaching disk when
  they are evicted from it or cleaned;
* the cache keeps exactly **one, always-current copy** per page, managed by
  **LRU-2** — so entering a page *overwrites a slot in place*, a random
  flash write, and evicting a dirty victim costs a random flash read plus a
  disk write.  This in-place write pattern is what saturates the flash
  device in the paper's Table 4;
* a **lazy cleaner** flushes dirty cached pages to disk whenever the dirty
  fraction exceeds a tunable threshold;
* **no recovery integration**: cache metadata is volatile, so database
  checkpoints must write dirty pages (DRAM *and* flash-cached) through to
  disk, and after a crash the cache contents are unusable — recovery reads
  come from disk.
"""

from __future__ import annotations

from repro.buffer.frame import Frame
from repro.db.page import PageImage
from repro.errors import CacheError
from repro.flashcache.base import FlashCacheBase, RecoveryTimings
from repro.flashcache.lru2 import Lru2Policy
from repro.obs import OBS
from repro.storage.volume import Volume


class LazyCleaningCache(FlashCacheBase):
    """On-exit, write-back, LRU-2 flash cache with a background cleaner."""

    name = "LC"

    def __init__(
        self,
        flash: Volume,
        disk: Volume,
        capacity: int,
        dirty_threshold: float = 0.9,
    ) -> None:
        super().__init__(flash, disk)
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1 page, got {capacity}")
        if not 0.0 < dirty_threshold <= 1.0:
            raise CacheError(f"dirty threshold must be in (0, 1], got {dirty_threshold}")
        self.capacity = capacity
        self.dirty_threshold = dirty_threshold
        self._slot_of: dict[int, int] = {}  # page_id -> flash LBA
        self._dirty: dict[int, bool] = {}  # page_id -> flash copy newer than disk
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._policy = Lru2Policy()
        self._dirty_count = 0
        self.cleaner_flushes = 0

    # -- read path ------------------------------------------------------------

    def lookup_fetch(self, page_id: int) -> tuple[PageImage, bool] | None:
        self.stats.lookups += 1
        lba = self._slot_of.get(page_id)
        if lba is None:
            return None
        image = self.flash.read_page(lba)  # random flash read
        self._policy.touch(page_id)
        self.stats.hits += 1
        return image, self._dirty[page_id]

    # -- write path ---------------------------------------------------------

    def on_dram_evict(self, frame: Frame) -> None:
        self._count_eviction(frame)
        self._insert(frame.page.to_image(), dirty=frame.dirty)
        self._run_cleaner()

    def _insert(self, image: PageImage, dirty: bool) -> None:
        page_id = image.page_id
        lba = self._slot_of.get(page_id)
        if lba is None:
            lba = self._acquire_slot()
            self._slot_of[page_id] = lba
            self._set_dirty(page_id, dirty)
            if OBS.enabled:
                self._obs_counter("insert.fresh").inc()
        else:
            # In-place overwrite keeps the single always-current copy.
            self._set_dirty(page_id, self._dirty[page_id] or dirty)
            if OBS.enabled:
                self._obs_counter("insert.overwrite").inc()
        self.flash.write_page(lba, image)  # random flash write
        self._policy.touch(page_id)
        self.stats.flash_writes += 1
        if OBS.enabled:
            OBS.gauge(f"{self.obs_prefix}.dirty_fraction").set(self.dirty_fraction)

    def _acquire_slot(self) -> int:
        if self._free:
            return self._free.pop()
        victim = self._policy.victim()
        lba = self._slot_of.pop(victim)
        was_dirty = self._dirty.pop(victim)
        if was_dirty:
            self._dirty_count -= 1
            victim_image = self.flash.read_page(lba)  # random flash read
            self._write_disk(victim_image)
        return lba

    def _set_dirty(self, page_id: int, dirty: bool) -> None:
        previous = self._dirty.get(page_id, False)
        if dirty and not previous:
            self._dirty_count += 1
        elif previous and not dirty:
            self._dirty_count -= 1
        self._dirty[page_id] = dirty

    # -- lazy cleaner -----------------------------------------------------------

    @property
    def dirty_fraction(self) -> float:
        return self._dirty_count / self.capacity

    def _run_cleaner(self) -> None:
        """Flush coldest dirty pages until below the dirty threshold.

        Iterates the LRU-2 ranking lazily (:meth:`Lru2Policy.iter_coldest`)
        so each cleaning pass costs O(k log n) for the k pages it actually
        flushes — the cleaner used to full-sort the history every pass,
        which dominated LC cell wall time in the benchmarks.
        """
        if self.dirty_fraction <= self.dirty_threshold:
            return
        target = int(self.dirty_threshold * self.capacity)
        for page_id in self._policy.iter_coldest():
            if self._dirty_count <= target:
                break
            if self._dirty.get(page_id):
                self._clean_page(page_id)

    def _clean_page(self, page_id: int) -> None:
        image = self.flash.read_page(self._slot_of[page_id])
        self._write_disk(image)
        self._set_dirty(page_id, False)
        self.cleaner_flushes += 1
        if OBS.enabled:
            self._obs_counter("cleaner.flushes").inc()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_frame(self, frame: Frame) -> None:
        """Checkpoints must reach disk: the flash cache is not persistent
        scope under LC.  The cached copy (if any) is refreshed in place so
        future hits stay current, and is now clean (synced with disk)."""
        image = frame.page.to_image()
        self._write_disk(image)
        lba = self._slot_of.get(frame.page_id)
        if lba is not None:
            self.flash.write_page(lba, image)
            self._set_dirty(frame.page_id, False)
            self.stats.flash_writes += 1
        frame.dirty = False
        frame.fdirty = False

    def finish_checkpoint(self) -> None:
        """Flush every remaining dirty cached page to disk — the
        "significant additional cost of checkpointing" the paper cites."""
        for page_id, dirty in list(self._dirty.items()):
            if dirty:
                self._clean_page(page_id)

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> None:
        """Volatile metadata: the cache is unusable after a failure."""
        self._slot_of.clear()
        self._dirty.clear()
        self._dirty_count = 0
        self._free = list(range(self.capacity - 1, -1, -1))
        self._policy = Lru2Policy()

    def recover(self) -> RecoveryTimings:
        return RecoveryTimings(cache_survives=False)

    # -- introspection ------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        return len(self._slot_of)

