"""Flash-cache policy interface and shared statistics.

Every caching strategy the paper evaluates — FaCE's mvFIFO (plus the GR and
GSC optimisations), Lazy Cleaning, TAC, an Exadata-style cache, and the
no-cache configuration — implements :class:`FlashCacheBase`.  The DBMS data
path is policy-agnostic: it asks the cache on every DRAM miss
(:meth:`lookup_fetch`), hands it every DRAM eviction (:meth:`on_dram_evict`),
routes checkpoint flushes through it (:meth:`checkpoint_frame`,
:meth:`finish_checkpoint`), and delegates crash/restart handling
(:meth:`crash`, :meth:`recover`).

Timing is never computed here: policies express their I/O as operations on
the flash and disk :class:`~repro.storage.volume.Volume` objects, which
charge the calibrated device models.  That keeps each policy's *I/O shape*
(random vs sequential, single-page vs batch) the thing being compared —
exactly the paper's experimental contrast.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.buffer.frame import Frame
from repro.db.page import PageImage
from repro.obs import OBS, sanitize
from repro.storage.volume import Volume


@dataclass
class CacheStats:
    """Counters every policy maintains; drives Tables 3 and 4."""

    #: DRAM-miss lookups that consulted the flash cache.
    lookups: int = 0
    #: Lookups answered by a valid flash copy (numerator of Table 3a).
    hits: int = 0
    #: Pages physically written into the flash cache.
    flash_writes: int = 0
    #: Evictions skipped by conditional enqueue (identical copy existed).
    skipped_enqueues: int = 0
    #: Dirty DRAM evictions received (denominator of Table 3b).
    dirty_evictions: int = 0
    #: Clean DRAM evictions received.
    clean_evictions: int = 0
    #: Pages the cache layer wrote to disk (dequeues, cleaning, write-through).
    disk_writes: int = 0
    #: Dirty versions that died in cache without a disk write (invalidation).
    invalidated_dirty: int = 0
    #: Pages flushed into the cache by database checkpoints (FaCE).
    checkpoint_writes: int = 0

    @property
    def flash_hit_rate(self) -> float:
        """Table 3(a): flash hits / all DRAM misses."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def write_reduction(self) -> float:
        """Table 3(b): fraction of dirty evictions absorbed before disk.

        1 means every dirty eviction was coalesced/invalidated in flash;
        0 means every dirty eviction eventually cost a disk write (the
        no-cache behaviour).
        """
        if not self.dirty_evictions:
            return 0.0
        return max(0.0, 1.0 - self.disk_writes / self.dirty_evictions)

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


@dataclass
class RecoveryTimings:
    """What a policy did to make its cache usable again after a crash."""

    #: Seconds of I/O spent restoring the cache's metadata directory.
    metadata_restore_time: float = 0.0
    #: Data pages scanned from flash to rebuild lost directory entries.
    pages_scanned: int = 0
    #: Persistent metadata segment pages read back.
    segment_pages_read: int = 0
    #: True when the cache contents are usable for recovery reads.
    cache_survives: bool = False


#: Callback the DBMS installs so GSC can pull extra frames from the DRAM
#: LRU tail (WAL-forced and eviction-accounted by the DBMS before return).
PullCallback = Callable[[int], list[Frame]]


class FlashCacheBase(abc.ABC):
    """Common structure for all flash-cache policies."""

    #: Short policy name used in reports ("FaCE", "FaCE+GSC", "LC", ...).
    name: str = "abstract"

    def __init__(self, flash: Volume | None, disk: Volume) -> None:
        self.flash = flash
        self.disk = disk
        self.stats = CacheStats()
        self._pull_callback: PullCallback | None = None
        self._obs_cache: dict | None = None

    # -- observability -------------------------------------------------------

    @property
    def obs_prefix(self) -> str:
        """Metric namespace for this policy (``flashcache.<policy>``)."""
        return f"flashcache.{sanitize(self.name)}"

    def _obs_counter(self, suffix: str):
        """Lazily cached per-policy counter ``flashcache.<policy>.<suffix>``.

        Call sites guard with ``if OBS.enabled:`` so the disabled cost is a
        branch; handles survive :meth:`~repro.obs.MetricRegistry.reset`.
        """
        cache = self._obs_cache
        if cache is None:
            cache = self._obs_cache = {}
        counter = cache.get(suffix)
        if counter is None:
            counter = cache[suffix] = OBS.counter(f"{self.obs_prefix}.{suffix}")
        return counter

    # -- wiring ---------------------------------------------------------------

    def set_pull_callback(self, callback: PullCallback) -> None:
        """Install the DRAM LRU-tail pull hook (used only by GSC)."""
        self._pull_callback = callback

    # -- read path ----------------------------------------------------------

    @abc.abstractmethod
    def lookup_fetch(self, page_id: int) -> tuple[PageImage, bool] | None:
        """On a DRAM miss: return ``(image, flash_copy_dirty)`` on a flash
        hit (charging the flash read), or ``None`` to fall through to disk.
        """

    # -- write path ---------------------------------------------------------

    @abc.abstractmethod
    def on_dram_evict(self, frame: Frame) -> None:
        """Handle a page evicted from the DRAM buffer (clean or dirty)."""

    def on_fetch_from_disk(self, image: PageImage) -> None:
        """Hook for on-entry policies (TAC/Exadata); on-exit policies ignore."""

    # -- checkpointing --------------------------------------------------------

    @abc.abstractmethod
    def checkpoint_frame(self, frame: Frame) -> None:
        """Flush one dirty DRAM frame to the persistent database.

        FaCE directs this at the flash cache (Section 4.1); other policies
        at disk.  Implementations must clear the frame flags they satisfy.
        """

    def finish_checkpoint(self) -> None:
        """Policy-specific end-of-checkpoint work (LC syncs flash dirties)."""

    # -- crash / recovery -------------------------------------------------------

    @abc.abstractmethod
    def crash(self) -> None:
        """Lose all RAM-resident cache state (directories, staging buffers)."""

    @abc.abstractmethod
    def recover(self) -> RecoveryTimings:
        """Restore whatever the policy can after :meth:`crash`."""

    # -- shared helpers for subclasses -------------------------------------------

    def _count_eviction(self, frame: Frame) -> None:
        if frame.dirty or frame.fdirty:
            self.stats.dirty_evictions += 1
            if OBS.enabled:
                self._obs_counter("evictions.dirty").inc()
        else:
            self.stats.clean_evictions += 1
            if OBS.enabled:
                self._obs_counter("evictions.clean").inc()

    def _write_disk(self, image: PageImage) -> None:
        """Write ``image`` to its home disk location, counting it."""
        self.disk.write_page(image.page_id, image)
        self.stats.disk_writes += 1
        if OBS.enabled:
            self._obs_counter("disk_writes").inc()

    def _write_disks(self, images: list[PageImage]) -> None:
        """:meth:`_write_disk` each of ``images``, in order: one page
        write each on the disk device, one call into its page store."""
        if not images:
            return
        self.disk.write_pages([(image.page_id, image) for image in images])
        self.stats.disk_writes += len(images)
        if OBS.enabled:
            self._obs_counter("disk_writes").inc(len(images))

    def reset_stats(self) -> None:
        self.stats.reset()
