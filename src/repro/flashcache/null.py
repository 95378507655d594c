"""No flash cache: the paper's "HDD only" and "SSD only" configurations.

Every DRAM miss goes to disk; every dirty eviction and checkpoint flush is
a disk write.  Serves as the baseline for Figure 4's HDD-only line and the
Table 6 "HDD only" recovery runs.
"""

from __future__ import annotations

from repro.buffer.frame import Frame
from repro.db.page import PageImage
from repro.flashcache.base import FlashCacheBase, RecoveryTimings
from repro.storage.volume import Volume


class NullFlashCache(FlashCacheBase):
    """Policy object for a system with no flash tier at all."""

    name = "HDD-only"

    def __init__(self, disk: Volume) -> None:
        super().__init__(flash=None, disk=disk)

    def lookup_fetch(self, page_id: int) -> tuple[PageImage, bool] | None:
        self.stats.lookups += 1
        return None

    def on_dram_evict(self, frame: Frame) -> None:
        self._count_eviction(frame)
        if frame.dirty or frame.fdirty:
            self._write_disk(frame.page.to_image())

    def checkpoint_frame(self, frame: Frame) -> None:
        self._write_disk(frame.page.to_image())
        frame.dirty = False
        frame.fdirty = False

    def crash(self) -> None:
        """Nothing volatile to lose."""

    def recover(self) -> RecoveryTimings:
        return RecoveryTimings(cache_survives=False)


class SsdOnlyCache(NullFlashCache):
    """No flash tier because the database itself is on the SSD (Figure 4)."""

    name = "SSD-only"
