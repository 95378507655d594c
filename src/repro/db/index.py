"""Durable hash index.

Index entries live *inside bucket pages* that occupy the same page-id space
as table pages, flow through the same DRAM buffer / flash cache / disk path,
and are redo-logged like any other page update.  This mirrors the paper's
setup ("59 GB including indexes") where index I/O competes for the caches
and index consistency is restored by normal WAL recovery — no special-case
index rebuild is needed after a crash.

A bucket page stores entries as ``slots[pk_tuple] = (page_id, slot)``; the
page abstraction allows arbitrary hashable slot keys, so a lookup is a dict
probe once the bucket page is in the buffer.  The engine reads entries with
:meth:`~repro.core.dbms.SimulatedDBMS.index_lookup` and writes them with
``index_insert`` / ``index_delete`` (logged under a transaction) and
``load_index`` (bulk), each placing a key with :meth:`HashIndex.bucket_page`.
"""

from __future__ import annotations

import zlib

from repro.db.catalog import IndexInfo


def stable_key_hash(key: tuple) -> int:
    """Deterministic cross-process hash of a primary-key tuple.

    Python's built-in ``hash`` is randomised for strings between processes,
    which would make bucket placement — and therefore every I/O trace —
    non-reproducible.  This mixes ints arithmetically and strings via CRC32.
    An exact ``int`` skips the type ladder (the same values, sooner).
    :meth:`HashIndex.bucket_page` does the all-int arithmetic inline.
    """
    h = 2166136261
    for part in key:
        if type(part) is int:
            v = part & 0xFFFFFFFF
        elif isinstance(part, str):
            v = zlib.crc32(part.encode("utf-8"))
        elif isinstance(part, int):  # bool and other int subclasses
            v = part & 0xFFFFFFFF
        else:
            v = zlib.crc32(repr(part).encode("utf-8"))
        h = ((h ^ v) * 16777619) & 0xFFFFFFFF
    return h


class HashIndex:
    """A static-bucket-count hash index over primary keys."""

    def __init__(self, info: IndexInfo) -> None:
        self.info = info

    def bucket_page(self, key: tuple) -> int:
        """Page id of the bucket that owns ``key``.

        The one place an index key is placed (probe, logged write and bulk
        load).  An all-int key is hashed here, with :func:`stable_key_hash`'s
        arithmetic and no call; any other key by the function.
        """
        h = 2166136261
        for part in key:
            if type(part) is not int:
                h = stable_key_hash(key)
                break
            h = ((h ^ (part & 0xFFFFFFFF)) * 16777619) & 0xFFFFFFFF
        info = self.info
        return info.first_page + h % info.n_pages
