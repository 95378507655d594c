"""Persistent flash-cache metadata: segments, superblock, restart restore.

Implements Section 4.1 of the paper.  Because mvFIFO only ever *appends*,
metadata entries can be collected in RAM and written to flash in large
sequential segments — "in a similar way to how a database log tail is
maintained" — instead of the per-entry random writes an LRU cache (TAC)
needs.  One entry is 24 bytes (page id, pageLSN, flags); a segment holds
``segment_entries`` of them (64,000 in the paper ⇒ ~1.5 MB per flush).
The RAM-resident "current segment" is the directory's positions
``[persisted_rear, rear)`` — still live, because a segment is at most half
the queue — read off the directory ring when the segment is written.

On-flash layout (all within the flash device, after the cache region):

* ``meta_base``              — superblock page: (front, rear, segment list)
* ``meta_base + 1 ...``      — segment slots, allocated circularly

Every page image enqueued into the cache region carries a footer
(:class:`CacheSlotImage`) with its virtual queue position and dirty flag.
After a crash, the entries of the current (never-flushed) segment are
rebuilt exactly the way the paper describes: by scanning the data pages at
the rear of the queue and reading their footers/headers.  The scan is
charged for up to **two** segments' worth of pages — the paper's rule,
because a crash can hit mid-flush and the implementation does not quiesce
enqueues during a metadata flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.db.page import PageImage
from repro.errors import CacheError
from repro.flashcache.base import RecoveryTimings
from repro.flashcache.directory import Entry, FifoDirectory
from repro.storage.profiles import PAGE_SIZE
from repro.storage.volume import Volume

#: Bytes per metadata entry (page id + pageLSN + flags), per the paper.
ENTRY_BYTES = 24


class CacheSlotImage(NamedTuple):
    """A page image as physically stored in a cache slot.

    The footer fields (``position``, ``dirty``) are what the restart scan
    reads back to rebuild the lost tail of the metadata directory.  One is
    built per enqueue, hence a tuple: the cheapest immutable record there is.
    """

    position: int
    dirty: bool
    image: PageImage

    @property
    def page_id(self) -> int:
        return self.image.page_id

    @property
    def lsn(self) -> int:
        return self.image.lsn

    def __deepcopy__(self, memo: dict) -> "CacheSlotImage":
        return self  # immutable, like the PageImage it wraps


@dataclass(frozen=True)
class _Superblock:
    """Persistent queue pointers + where each flushed segment lives."""

    front: int
    rear_at_flush: int
    segment_lbas: tuple[int, ...]


@dataclass(frozen=True)
class _SegmentImage:
    """One flushed metadata segment as stored on flash."""

    first_position: int
    entries: tuple[Entry, ...]


class MetadataManager:
    """Segment-buffered persistent metadata for the mvFIFO cache."""

    def __init__(
        self,
        flash: Volume,
        cache_capacity: int,
        meta_base: int,
        meta_pages: int,
        segment_entries: int = 64_000,
    ) -> None:
        if segment_entries < 1:
            raise CacheError("segment_entries must be >= 1")
        self.flash = flash
        self.cache_capacity = cache_capacity
        self.meta_base = meta_base
        self.meta_pages = meta_pages
        self.segment_entries = segment_entries
        self.segment_pages = max(1, -(-segment_entries * ENTRY_BYTES // PAGE_SIZE))
        min_pages = 1 + self.segment_pages
        if meta_pages < min_pages:
            raise CacheError(
                f"metadata region of {meta_pages} pages cannot hold the "
                f"superblock plus one {self.segment_pages}-page segment"
            )
        #: RAM-resident (lost on crash): enqueues before this position are
        #: in a persisted segment (or predate the last restart).  The owning
        #: cache calls :meth:`flush_segment` once ``segment_entries``
        #: enqueues lie beyond it.
        self.persisted_rear = 0
        # Allocation cursor for segment slots within the metadata region.
        self._next_seg_lba = meta_base + 1
        self.segments_flushed = 0

    # -- steady-state operation ----------------------------------------------

    def flush_segment(self, directory: FifoDirectory, front: int) -> None:
        """Write ``directory``'s unpersisted entries + the superblock to flash.

        Charged as one large sequential write (segment) plus one page
        (superblock) — ~1.5 MB per the paper, versus TAC's two random
        writes *per cached page*.  The caller writes its staged data pages
        first and chooses the ``front`` the superblock records: never past
        a slot whose page has no newer durable copy (``MvFifoCache._enqueue``,
        DESIGN.md §7).  The manager holds no reference back to the cache.
        """
        first = self.persisted_rear
        rear = directory.rear
        if rear <= first:
            return
        lba = self._alloc_segment_lba()
        segment = _SegmentImage(
            first_position=first, entries=tuple(directory.entries(first, rear))
        )
        images: list[object] = [segment] + [None] * (self.segment_pages - 1)
        self.flash.write_batch(lba, images)
        old = self._read_superblock_untimed()
        segment_lbas = (old.segment_lbas if old else ()) + (lba,)
        segment_lbas = self._prune_segments(segment_lbas)
        superblock = _Superblock(front=front, rear_at_flush=rear, segment_lbas=segment_lbas)
        self.flash.write_page(self.meta_base, superblock)
        self.persisted_rear = rear
        self.segments_flushed += 1

    def _alloc_segment_lba(self) -> int:
        lba = self._next_seg_lba
        if lba + self.segment_pages > self.meta_base + self.meta_pages:
            lba = self.meta_base + 1  # circular reuse of the region
        self._next_seg_lba = lba + self.segment_pages
        return lba

    def _prune_segments(self, lbas: tuple[int, ...]) -> tuple[int, ...]:
        """Keep only as many segments as can cover the live queue window."""
        needed = -(-self.cache_capacity // self.segment_entries) + 1
        return lbas[-needed:]

    def _read_superblock_untimed(self) -> _Superblock | None:
        return self.flash.peek(self.meta_base)

    # -- crash / restart --------------------------------------------------------

    def crash(self) -> None:
        """Lose the RAM-resident current segment (the directory is wiped
        with it; positions restart at 0 unless :meth:`recover` follows)."""
        self.persisted_rear = 0

    def recover(self, directory: FifoDirectory) -> RecoveryTimings:
        """Rebuild ``directory`` from persistent segments + a tail scan.

        Follows Section 4.2: read the superblock and the persisted segment
        images, then scan up to two segments' worth of data pages at the
        rear of the cache region, using each page's footer to recognise
        pages enqueued after the last metadata flush.
        """
        timings = RecoveryTimings(cache_survives=True)
        flash_busy_before = self.flash.device.busy_time

        superblock = self.flash.peek(self.meta_base)
        entries: list[Entry] = []
        front = 0
        rear = 0
        if superblock is not None:
            self.flash.read_page(self.meta_base)
            timings.segment_pages_read += 1
            front = superblock.front
            rear = superblock.rear_at_flush
            for lba in superblock.segment_lbas:
                segment = self.flash.read_batch(lba, self.segment_pages)[0]
                timings.segment_pages_read += self.segment_pages
                if segment is not None:
                    entries.extend(segment.entries)

        # Tail scan: the paper reads the data pages of the two most recent
        # segments because a flush may have been in progress at the crash.
        scan_limit = min(2 * self.segment_entries, self.cache_capacity)
        scanned = 0
        expected = rear
        while scanned < scan_limit:
            batch = min(256, scan_limit - scanned)
            lbas = [(expected + i) % self.cache_capacity for i in range(batch)]
            # Charge one batched sequential read per chunk of the scan,
            # split in two where the circular region wraps.
            span = min(batch, self.cache_capacity - lbas[0])
            self.flash.device.read(lbas[0], span)
            if span < batch:
                self.flash.device.read(0, batch - span)
            timings.pages_scanned += batch
            advanced = 0
            for offset, lba in enumerate(lbas):
                slot = self.flash.peek(lba)
                if isinstance(slot, CacheSlotImage) and slot.position == expected + offset:
                    entries.append((slot.position, slot.page_id, slot.lsn, slot.dirty))
                    advanced += 1
                else:
                    break
            expected += advanced
            scanned += batch
            if advanced < batch:
                break
        rear = expected
        front = max(front, rear - self.cache_capacity)
        entries.sort(key=lambda e: e[0])
        directory.restore(front, rear, entries)
        self.persisted_rear = rear

        timings.metadata_restore_time = self.flash.device.busy_time - flash_busy_before
        return timings


def unwrap_image(slot: object) -> PageImage:
    """Extract the page image from a stored cache slot."""
    if isinstance(slot, CacheSlotImage):
        return slot.image
    if isinstance(slot, PageImage):
        return slot
    raise CacheError(f"cache slot holds unexpected object {type(slot).__name__}")
