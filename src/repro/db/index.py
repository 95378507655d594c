"""Durable hash index.

Index entries live *inside bucket pages* that occupy the same page-id space
as table pages, flow through the same DRAM buffer / flash cache / disk path,
and are redo-logged like any other page update.  This mirrors the paper's
setup ("59 GB including indexes") where index I/O competes for the caches
and index consistency is restored by normal WAL recovery — no special-case
index rebuild is needed after a crash.

A bucket page stores entries as ``slots[pk_tuple] = (page_id, slot)``; the
page abstraction allows arbitrary hashable slot keys, so a lookup is a dict
probe once the bucket page is in the buffer.
"""

from __future__ import annotations

import zlib
from typing import Protocol

from repro.db.catalog import IndexInfo
from repro.db.heap import Rid
from repro.db.page import Page


class PageAccessor(Protocol):
    """The page read an index probe needs.

    The full system implements this with the DRAM buffer pool; unit tests
    implement it with a plain dict of pages.  Entries are written by
    :meth:`~repro.core.dbms.SimulatedDBMS.index_insert` /
    ``index_delete`` (logged under a transaction) and ``load_index_insert``.
    """

    def read_page(self, page_id: int) -> Page:
        """Fetch a page for reading (charges whatever I/O applies)."""
        ...


def stable_key_hash(key: tuple) -> int:
    """Deterministic cross-process hash of a primary-key tuple.

    Python's built-in ``hash`` is randomised for strings between processes,
    which would make bucket placement — and therefore every I/O trace —
    non-reproducible.  This mixes ints arithmetically and strings via CRC32.
    """
    h = 2166136261
    for part in key:
        if isinstance(part, int):
            v = part & 0xFFFFFFFF
        elif isinstance(part, str):
            v = zlib.crc32(part.encode("utf-8"))
        else:
            v = zlib.crc32(repr(part).encode("utf-8"))
        h = ((h ^ v) * 16777619) & 0xFFFFFFFF
    return h


class HashIndex:
    """A static-bucket-count hash index over primary keys."""

    def __init__(self, info: IndexInfo) -> None:
        self.info = info

    def bucket_page(self, key: tuple) -> int:
        """Page id of the bucket that owns ``key``."""
        return self.info.first_page + stable_key_hash(key) % self.info.n_pages

    def lookup(self, key: tuple, accessor: PageAccessor) -> Rid | None:
        """Return the rid for ``key`` or ``None`` if absent."""
        page = accessor.read_page(self.bucket_page(key))
        entry = page.get(key)
        return (entry[0], entry[1]) if entry is not None else None
