"""Database consistency verification across all storage tiers.

After a crash test (or any experiment) these checks audit the whole system
for the invariants DESIGN.md §5 promises:

* **Version ordering** — for every page, LSNs are consistent across tiers:
  the DRAM copy (if any) is at least as new as the valid flash copy, which
  is at least as new as the disk copy.
* **Directory/queue agreement** — the mvFIFO directory's valid positions
  actually hold slots for the right page ids (and, when the slot has been
  physically written, the footer agrees).
* **Visibility** — the version the engine would serve (DRAM ≻ valid flash
  ≻ disk) is the newest version that exists anywhere.

These are *audits*, not data-path code: they peek at stores without
charging I/O, so tests can call them after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dbms import SimulatedDBMS
from repro.db.page import PageImage
from repro.flashcache.metadata import CacheSlotImage, unwrap_image
from repro.flashcache.mvfifo import MvFifoCache


@dataclass
class VerificationReport:
    """Outcome of a full-system audit."""

    pages_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _fail(self, message: str) -> None:
        self.violations.append(message)


def _flash_valid_image(dbms: SimulatedDBMS, page_id: int):
    """(image, lsn) of the valid flash copy, or None.

    For batched caches a valid position may still be staged in RAM; the
    staging buffer is consulted like the data path would.
    """
    cache = dbms.cache
    if not isinstance(cache, MvFifoCache):
        return None
    position = cache.directory.valid_position(page_id)
    if position is None:
        return None
    staged = cache.staged_slot(position)
    if staged is not None:
        return staged.image
    slot = dbms.flash.peek(cache.directory.physical(position))
    if slot is None:
        return None
    return unwrap_image(slot)


def verify_tier_ordering(dbms: SimulatedDBMS) -> VerificationReport:
    """Check LSN ordering and visibility for every allocated page."""
    report = VerificationReport()
    for page_id in range(dbms.db_pages):
        report.pages_checked += 1
        disk_image = dbms.disk.peek(page_id)
        disk_lsn = disk_image.lsn if isinstance(disk_image, PageImage) else 0
        flash_image = _flash_valid_image(dbms, page_id)
        flash_lsn = flash_image.lsn if flash_image is not None else None
        frame = dbms.buffer.peek(page_id)
        dram_lsn = frame.page.lsn if frame is not None else None

        if flash_lsn is not None and flash_lsn < disk_lsn:
            # A valid flash copy older than disk would serve stale data.
            report._fail(
                f"page {page_id}: valid flash copy (lsn {flash_lsn}) older "
                f"than disk (lsn {disk_lsn})"
            )
        if dram_lsn is not None:
            newest_below = max(disk_lsn, flash_lsn or 0)
            if dram_lsn < newest_below:
                report._fail(
                    f"page {page_id}: DRAM copy (lsn {dram_lsn}) older than a "
                    f"non-volatile copy (lsn {newest_below})"
                )
    return report


def verify_cache_directory(dbms: SimulatedDBMS) -> VerificationReport:
    """Check mvFIFO directory ↔ physical-slot agreement."""
    report = VerificationReport()
    cache = dbms.cache
    if not isinstance(cache, MvFifoCache):
        return report
    directory = cache.directory
    seen_valid: set[int] = set()
    for position in directory.live_positions():
        meta = directory.meta_at(position)
        report.pages_checked += 1
        if meta.valid:
            if meta.page_id in seen_valid:
                report._fail(f"page {meta.page_id}: two valid cache versions")
            seen_valid.add(meta.page_id)
            if directory.valid_position(meta.page_id) != position:
                report._fail(
                    f"page {meta.page_id}: directory points away from its "
                    f"valid slot {position}"
                )
        slot = cache.staged_slot(position)
        if slot is None:
            slot = dbms.flash.peek(directory.physical(position))
        if slot is None:
            continue  # never physically written (lost staging is legal)
        if isinstance(slot, CacheSlotImage) and slot.position == position:
            if slot.page_id != meta.page_id:
                report._fail(
                    f"slot {position}: holds page {slot.page_id}, directory "
                    f"says {meta.page_id}"
                )
    return report


def verify_all(dbms: SimulatedDBMS) -> VerificationReport:
    """Run every audit; aggregate the findings."""
    combined = VerificationReport()
    for check in (verify_tier_ordering, verify_cache_directory):
        partial = check(dbms)
        combined.pages_checked += partial.pages_checked
        combined.violations.extend(partial.violations)
    return combined
