"""File-backed page stores whose contents survive process death.

Two backends, both keyed by LBA and holding the byte encoding of
:mod:`repro.storage.codec`:

* :class:`SqlitePageStore` — one SQLite file, ``pages(lba INTEGER PRIMARY
  KEY, data BLOB)``.  Autocommit (``isolation_level=None``) with
  ``synchronous=OFF``: every completed statement's effects reach the
  kernel page cache, so they survive ``SIGKILL`` (the hard-crash model —
  process death, not power loss).  A batch (``put_many``) is one
  transaction: it lands whole or not at all.
* :class:`MmapPageStore` — a log-structured append-only file (the
  flash-friendly layout: FaCE itself turns random cache writes into
  sequential ones).  Writes append ``(magic, lba, length, payload)``
  records via ``os.write`` — in the kernel immediately, one call per
  batch (``put_many``) — deletes append a tombstone, and an in-RAM
  ``lba -> (offset, length)`` index serves reads through an ``mmap``
  window.  Reopening rebuilds the index with a sequential last-write-wins
  scan that stops cleanly at a torn tail.

Either backend opened on an existing path adopts its contents rather than
truncating — that reopen-after-death is exactly what ``python -m repro
crash`` exercises.  A file holding an LBA the store's capacity does
not cover fails closed: :class:`~repro.errors.OutOfRangeError`, the file
untouched.  Without an explicit path a store lives in a private temp file,
removed when the store is garbage collected or its process exits — by the
process that created it only: a forked child inherits the store object,
not the file.

A store returns what it wrote.  It remembers, per LBA, the object of the
last ``put`` / ``put_many`` once that write has landed (after ``COMMIT``,
after ``os.write``).  A read still fetches the bytes, and returns the
remembered object only when they are byte for byte its encoding
(:func:`~repro.storage.codec.is_encoding`); any other bytes are decoded, and
fail closed, as before.  So a page that went to flash and comes back
unchanged is not decoded again, and its image — which kept the body it was
encoded to — moves on to disk without another encode.  A template install
(``adopt_slots``), ``copy_from``, a reopen and a fork remember nothing, and
``delete``, ``clear`` and a later write of the LBA forget: what is kept is
bounded by the LBAs written since the store was filled (the flash cache's
slots and the cell's write-backs), and a reopen after ``crash``
decodes everything it reads.

A store is copied, not re-encoded: :meth:`PersistentPageStore.copy_from`
copies another store's file (``shutil.copyfile`` for mmap, SQLite's online
backup for sqlite), so forking a store encodes and decodes no page.

Simulated timing is still charged by the device models; these classes
only move bytes, so backend choice never changes simulation results
(parity pinned in ``tests/test_page_store.py``).
"""

from __future__ import annotations

import mmap
import os
import shutil
import sqlite3
import struct
import tempfile
from itertools import islice
from multiprocessing.util import Finalize
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import OutOfRangeError, PageNotFoundError, StorageError
from repro.obs import OBS
from repro.storage.backing import PageStore
from repro.storage.codec import decode_storable, encode_storable, is_encoding


def _temp_path(suffix: str) -> str:
    fd, path = tempfile.mkstemp(prefix="repro-store-", suffix=suffix)
    os.close(fd)
    return path


def _release(
    close: Callable[[Any], None],
    handle: Any,
    owned_path: str | None,
    owner_pid: int,
    suffixes: tuple[str, ...],
) -> None:
    try:
        close(handle)
    except (OSError, sqlite3.Error):  # pragma: no cover - double close
        pass
    if owned_path is None or os.getpid() != owner_pid:
        return
    for path in (owned_path, *(owned_path + suffix for suffix in suffixes)):
        try:
            os.unlink(path)
        except OSError:
            pass


class PersistentPageStore(PageStore):
    """Shared behaviour of the file-backed backends."""

    persistent = True
    _suffix = ".store"
    #: Side files the backend may create beside ``path``.
    _side_suffixes: tuple[str, ...] = ()

    def __init__(self, capacity_pages: int, path: str | os.PathLike | None = None) -> None:
        super().__init__(capacity_pages)
        self._owns_path = path is None
        self.path = os.fspath(path) if path is not None else _temp_path(self._suffix)
        #: LBA -> the object of its last ``put`` / ``put_many``, entered once
        #: the write has landed; see :meth:`_recall`.
        self._kept: dict[int, Any] = {}

    def _recall(self, lba: int, data, start: int = 0, end: int | None = None) -> Any:
        """The object read back from ``data[start:end]``, the bytes fetched
        for ``lba``: the object last written there if those bytes are still
        its encoding, else a fresh decode."""
        kept = self._kept.get(lba)
        if kept is not None and is_encoding(kept, data, start, end):
            return kept
        return decode_storable(data, start, end)

    def _close_with(self, close: Callable[[Any], None], handle: Any) -> None:
        """Close ``handle`` when the store is collected or its process
        exits (``multiprocessing`` finalizers also run in pool workers,
        which leave through ``os._exit``).  An owned temp file goes too,
        but only in the process that created it."""
        owned = self.path if self._owns_path else None
        Finalize(
            self,
            _release,
            (close, handle, owned, os.getpid(), self._side_suffixes),
            exitpriority=0,
        )

    def copy_from(self, source: "PersistentPageStore") -> None:
        """Replace all contents with a byte copy of ``source``, a store of
        the same backend: no page is encoded or decoded.

        The source is read through its path, never through its handles, so
        it may be a store this process inherited across ``fork()``.  As in
        :meth:`adopt_slots`, a source LBA outside this store raises
        :class:`~repro.errors.OutOfRangeError` and leaves it untouched.
        """
        raise NotImplementedError

    def _check_top(self, top: int | None, action: str = "copy_from") -> None:
        if top is not None and top >= self.capacity_pages:
            raise OutOfRangeError(
                f"{action}: lba {top} outside store of {self.capacity_pages} pages"
            )

    def __deepcopy__(self, memo: dict) -> "PersistentPageStore":
        # Warm-state forking (repro.sim.warmstate.fork_dbms) deep-copies
        # the whole DBMS graph; a file handle cannot be deep-copied, so a
        # fork gets a fresh temp-backed store holding a copy of the file.
        clone = type(self)(self.capacity_pages)
        clone.copy_from(self)
        memo[id(self)] = clone
        return clone


class SqlitePageStore(PersistentPageStore):
    """LBA -> blob in a single-file SQLite B-tree."""

    backend_name = "sqlite"
    _suffix = ".sqlite"
    _side_suffixes = ("-journal",)

    def __init__(self, capacity_pages: int, path: str | os.PathLike | None = None) -> None:
        super().__init__(capacity_pages, path)
        # Autocommit: each statement is its own durable-against-SIGKILL
        # transaction.  synchronous=OFF skips fsync — kernel-cache
        # durability is the hard-crash model, power loss is out of scope.
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=TRUNCATE")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS pages "
            "(lba INTEGER PRIMARY KEY, data BLOB NOT NULL)"
        )
        self._close_with(sqlite3.Connection.close, self._conn)
        top = self._conn.execute("SELECT MAX(lba) FROM pages").fetchone()[0]
        self._check_top(top, f"reopen {self.path}")

    def copy_from(self, source: "PersistentPageStore") -> None:
        # A connection of this process's own: SQLite connections must not
        # be used across fork(), and templates are inherited by pool workers.
        reader = sqlite3.connect(source.path)
        try:
            self._check_top(reader.execute("SELECT MAX(lba) FROM pages").fetchone()[0])
            self._kept.clear()
            reader.backup(self._conn)
        finally:
            reader.close()

    def put(self, lba: int, image: Any) -> None:
        self._check(lba)
        blob = encode_storable(image, keep=True)
        self._conn.execute(
            "INSERT OR REPLACE INTO pages (lba, data) VALUES (?, ?)", (lba, blob)
        )
        self._kept[lba] = image
        if OBS.enabled:
            self._note_put(len(blob))

    def put_many(self, items: Iterable[tuple[int, Any]]) -> None:
        items = self._checked_items(items)
        if not items:
            return
        rows = [(lba, encode_storable(image, keep=True)) for lba, image in items]
        conn = self._conn
        conn.execute("BEGIN")
        try:
            conn.executemany("INSERT OR REPLACE INTO pages (lba, data) VALUES (?, ?)", rows)
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        self._kept.update(items)
        if OBS.enabled:
            self._note_put(sum(len(blob) for _, blob in rows), pages=len(rows))

    def peek_many(self, lbas: Sequence[int]) -> list[Any | None]:
        self._check_many(lbas)
        wanted = list(set(lbas))
        blobs = dict(self._conn.execute(
            f"SELECT lba, data FROM pages WHERE lba IN ({','.join('?' * len(wanted))})",
            wanted,
        ))
        found = [blobs.get(lba) for lba in lbas]
        if OBS.enabled:
            hits = [len(blob) for blob in found if blob is not None]
            if hits:
                self._note_get(sum(hits), pages=len(hits))
        return [
            None if blob is None else self._recall(lba, blob)
            for lba, blob in zip(lbas, found)
        ]

    def _fetch(self, lba: int) -> bytes | None:
        row = self._conn.execute(
            "SELECT data FROM pages WHERE lba = ?", (lba,)
        ).fetchone()
        return None if row is None else row[0]

    def get(self, lba: int) -> Any:
        self._check(lba)
        blob = self._fetch(lba)
        if blob is None:
            raise PageNotFoundError(f"no page image at lba {lba}")
        if OBS.enabled:
            self._note_get(len(blob))
        return self._recall(lba, blob)

    def peek(self, lba: int) -> Any | None:
        self._check(lba)
        blob = self._fetch(lba)
        if blob is None:
            return None
        if OBS.enabled:
            self._note_get(len(blob))
        return self._recall(lba, blob)

    def delete(self, lba: int) -> None:
        self._check(lba)
        self._conn.execute("DELETE FROM pages WHERE lba = ?", (lba,))
        self._kept.pop(lba, None)

    def __contains__(self, lba: int) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM pages WHERE lba = ?", (lba,)
            ).fetchone()
            is not None
        )

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM pages").fetchone()[0]

    def occupied(self) -> Iterator[int]:
        rows = self._conn.execute("SELECT lba FROM pages ORDER BY lba").fetchall()
        return iter(row[0] for row in rows)

    def clear(self) -> None:
        self._conn.execute("DELETE FROM pages")
        self._kept.clear()

    def _install_slots(self, slots: Mapping[int, Any]) -> None:
        # A template install remembers nothing: its images stay without bytes.
        self._kept.clear()
        self._conn.execute("BEGIN")
        try:
            self._conn.execute("DELETE FROM pages")
            self._conn.executemany(
                "INSERT INTO pages (lba, data) VALUES (?, ?)",
                ((lba, encode_storable(image)) for lba, image in slots.items()),
            )
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def snapshot_slots(self) -> dict[int, Any]:
        rows = self._conn.execute(
            "SELECT lba, data FROM pages ORDER BY lba"
        ).fetchall()
        return {lba: decode_storable(blob) for lba, blob in rows}


class MmapPageStore(PersistentPageStore):
    """Log-structured append-only file with an mmap'd read window."""

    backend_name = "mmap"
    _suffix = ".pages"

    #: Record header: magic, lba, payload length (tombstone sentinel below).
    _RECORD = struct.Struct("<IqI")
    _MAGIC = 0x5E6_FACE
    _TOMBSTONE = 0xFFFF_FFFF
    #: Records ``_install_slots`` gathers per ``os.write``.
    _INSTALL_BATCH = 256

    def __init__(self, capacity_pages: int, path: str | os.PathLike | None = None) -> None:
        super().__init__(capacity_pages, path)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._size = os.fstat(self._fd).st_size
        self._map: mmap.mmap | None = None
        self._mapped = 0
        self._index: dict[int, tuple[int, int]] = {}
        self._close_with(os.close, self._fd)
        if self._size:
            self._rebuild_index()

    # -- file plumbing --------------------------------------------------------

    def _rebuild_index(self) -> None:
        """Sequential last-write-wins scan of the record log.

        Stops (rather than raises) at the first torn or foreign record:
        everything before a torn tail was a completed simulated write, and
        that prefix is exactly what a crashed real system would replay.  A
        complete record whose LBA is out of range raises instead.
        """
        view = self._view(self._size)
        offset = 0
        header = self._RECORD
        while offset + header.size <= self._size:
            magic, lba, length = header.unpack_from(view, offset)
            if magic != self._MAGIC:
                break
            if not 0 <= lba < self.capacity_pages:
                # A whole record of a larger store, not a torn write: fail
                # closed before anything is truncated.
                raise OutOfRangeError(
                    f"reopen {self.path}: lba {lba} outside store of "
                    f"{self.capacity_pages} pages"
                )
            offset += header.size
            if length == self._TOMBSTONE:
                self._index.pop(lba, None)
                continue
            if offset + length > self._size:  # torn tail
                offset -= header.size
                break
            self._index[lba] = (offset, length)
            offset += length
        # Anything past a torn/foreign record is unreachable garbage; keep
        # appending after the valid prefix so the log stays parseable.
        if offset < self._size:
            os.ftruncate(self._fd, offset)
            self._size = offset
            self._remap()

    def _view(self, need: int) -> mmap.mmap:
        """The read window, remapped when the file has grown past it."""
        if self._map is None or self._mapped < need:
            self._remap()
        if self._map is None:
            raise StorageError("mmap store: read from an empty file")
        return self._map

    def _remap(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        self._mapped = self._size
        if self._size:
            self._map = mmap.mmap(self._fd, self._size, access=mmap.ACCESS_READ)

    def _append(self, record: bytes) -> None:
        written = os.write(self._fd, record)
        if written != len(record):  # pragma: no cover - short writes
            raise StorageError(
                f"mmap store: short write ({written}/{len(record)} bytes)"
            )
        self._size += written

    # -- PageStore interface --------------------------------------------------

    def put(self, lba: int, image: Any) -> None:
        self._check(lba)
        blob = encode_storable(image, keep=True)
        self._append(self._RECORD.pack(self._MAGIC, lba, len(blob)) + blob)
        self._index[lba] = (self._size - len(blob), len(blob))
        self._kept[lba] = image
        if OBS.enabled:
            self._note_put(len(blob))

    def put_many(self, items: Iterable[tuple[int, Any]]) -> None:
        self._append_records(self._checked_items(items), keep=True)

    def _append_records(self, items: list[tuple[int, Any]], keep: bool) -> None:
        """Append one record per ``(lba, image)`` with a single ``os.write``;
        with ``keep``, remember each write as ``put`` does.

        As in ``put``, the records are in the kernel before the index
        points at them; a repeated LBA ends up at its last record.
        """
        if not items:
            return
        base, records, entries = self._size, bytearray(), []
        pack, magic = self._RECORD.pack, self._MAGIC
        for lba, image in items:
            blob = encode_storable(image, keep)
            records += pack(magic, lba, len(blob))
            entries.append((lba, (base + len(records), len(blob))))
            records += blob
        self._append(records)
        self._index.update(entries)
        if keep:
            self._kept.update(items)
        if OBS.enabled:
            self._note_put(len(records) - len(items) * self._RECORD.size, pages=len(items))

    def _install_slots(self, slots: Mapping[int, Any]) -> None:
        # One ``os.write`` per batch of records, not per page; bounded so a
        # batch never holds a second copy of the table.  Like the ``clear``
        # before it, a template install remembers nothing.
        self.clear()
        items = iter(slots.items())
        while batch := list(islice(items, self._INSTALL_BATCH)):
            self._append_records(batch, keep=False)

    def get(self, lba: int) -> Any:
        self._check(lba)
        entry = self._index.get(lba)
        if entry is None:
            raise PageNotFoundError(f"no page image at lba {lba}")
        offset, length = entry
        view = self._view(offset + length)
        if OBS.enabled:
            self._note_get(length)
        return self._recall(lba, view, offset, offset + length)

    def peek(self, lba: int) -> Any | None:
        self._check(lba)
        if lba not in self._index:
            return None
        return self.get(lba)

    def peek_many(self, lbas: Sequence[int]) -> list[Any | None]:
        self._check_many(lbas)
        entries = [self._index.get(lba) for lba in lbas]
        end = max((offset + length for offset, length in filter(None, entries)), default=0)
        if not end:
            return [None] * len(entries)
        view = self._view(end)
        if OBS.enabled:
            lengths = [entry[1] for entry in entries if entry is not None]
            self._note_get(sum(lengths), pages=len(lengths))
        return [
            None if entry is None
            else self._recall(lba, view, entry[0], entry[0] + entry[1])
            for lba, entry in zip(lbas, entries)
        ]

    def delete(self, lba: int) -> None:
        self._check(lba)
        if lba not in self._index:
            return
        self._append(self._RECORD.pack(self._MAGIC, lba, self._TOMBSTONE))
        del self._index[lba]
        self._kept.pop(lba, None)

    def __contains__(self, lba: int) -> bool:
        return lba in self._index

    def __len__(self) -> int:
        return len(self._index)

    def occupied(self) -> Iterator[int]:
        return iter(sorted(self._index))

    def clear(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        self._mapped = 0
        os.ftruncate(self._fd, 0)
        self._size = 0
        self._index.clear()
        self._kept.clear()

    def snapshot_slots(self) -> dict[int, Any]:
        return {lba: self.get(lba) for lba in self.occupied()}

    def copy_from(self, source: "PersistentPageStore") -> None:
        # The file is byte-identical afterwards, so the source's index is
        # this store's index.  ``shutil.copyfile`` opens the path afresh:
        # ``os.sendfile`` into this store's O_APPEND descriptor is EINVAL.
        self._check_top(max(source._index, default=None))
        self.clear()  # unmapped before the file is rewritten
        shutil.copyfile(source.path, self.path)
        self._size = os.fstat(self._fd).st_size
        self._index = dict(source._index)

    def flush(self) -> None:
        os.fsync(self._fd)
