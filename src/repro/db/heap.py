"""Heap files: row placement within a table's page range.

A heap file maps dense row numbers to ``(page_id, slot)`` record ids and
manages the append cursor for growing tables.  It is deliberately free of
I/O: reading and writing pages is the job of whatever page accessor the
caller uses (the buffer pool in the full system), so the same heap logic
serves the loader (which writes page images straight to disk) and the
transaction engine (which goes through the DRAM buffer and WAL).

Growing tables (ORDER, ORDER-LINE, NEW-ORDER, HISTORY in TPC-C) are given
headroom at allocation; if a very long run exhausts it, the append cursor
wraps and recycles the oldest pages.  This keeps unbounded simulations
runnable and is recorded in DESIGN.md as a deliberate substitution for
file extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.catalog import TableInfo
from repro.errors import CatalogError

#: A record id: (page_id, slot-within-page).
Rid = tuple[int, int]


@dataclass
class HeapFile:
    """Row-number arithmetic and append-cursor management for one table."""

    info: TableInfo
    wrapped: bool = False

    @property
    def slots_per_page(self) -> int:
        return self.info.schema.slots_per_page

    @property
    def capacity_rows(self) -> int:
        """Maximum rows the allocated page range can hold."""
        return self.info.n_pages * self.slots_per_page

    def rid_for_rownum(self, rownum: int) -> Rid:
        """Record id of dense row number ``rownum`` (load order)."""
        if rownum < 0:
            raise CatalogError(f"negative row number {rownum}")
        # ``capacity_rows`` and ``slots_per_page``, read off the info: one
        # frame per order-line read of a TPC-C transaction.
        info = self.info
        per_page = info.schema.slots_per_page
        page_offset, slot = divmod(rownum % (info.n_pages * per_page), per_page)
        return (info.first_page + page_offset, slot)

    def rids(self, first: int, count: int) -> list[Rid]:
        """Record ids of ``count`` rows from row number ``first`` (a bulk load's):
        the rids of the whole pages they span, trimmed, with no division per row."""
        if count <= 0:
            return []
        base, per_page = self.info.first_page, self.slots_per_page
        pages = range(base + first // per_page, base + (first + count - 1) // per_page + 1)
        rids = [(page, slot) for page in pages for slot in range(per_page)]
        skip = first % per_page
        return rids[skip : skip + count]

    def append_rid(self) -> Rid:
        """Allocate the next record id and advance the append cursor.

        Wraps to the start of the range when headroom is exhausted (the
        oldest rows are recycled); ``wrapped`` records that this happened.
        """
        info = self.info
        rownum = info.row_count
        if rownum >= info.n_pages * info.schema.slots_per_page:
            self.wrapped = True
        rid = self.rid_for_rownum(rownum)
        info.row_count = rownum + 1
        return rid
