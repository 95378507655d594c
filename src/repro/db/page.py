"""Database page representation.

A :class:`Page` is the in-DRAM, mutable form; a :class:`PageImage` is the
frozen snapshot that gets written to a non-volatile tier.  Pages carry the
two header fields the paper's recovery design needs (Section 4.1): the page
id and the ``pageLSN`` of the last update applied — that is what lets FaCE
rebuild the tail of the flash-cache metadata directory from data-page
headers after a crash, and what lets redo decide whether a logged update is
already reflected in a page.

The ``Page`` ↔ ``PageImage`` round-trip is the simulator's hottest data
movement (every DRAM eviction freezes a page; every flash/disk fetch thaws
one), so the slot mapping is shared copy-on-write between the two forms:
freezing hands the live dict to the image, thawing hands the image's dict to
the page, and the first mutation after either transfer copies.  A page whose
contents have not changed since the last snapshot returns the *same*
``PageImage`` object, which also lets the conditional-enqueue path skip
re-materialising identical copies.

**On-media layout** (``to_bytes`` / ``from_bytes``; byte-level table in
DESIGN.md §14).  A 24-byte header, then the slots as one **columnar run**,
or nothing for an empty page: a signature, one ``struct`` block of whole
columns and one UTF-8 string heap.  Every page the engine writes is of one
shape — a scalar or fixed-arity tuple key, a fixed-width row, every column
all int / float / str / ``None`` — and a page that is not (a nested tuple,
a column mixing kinds) is a ``StorageError`` when it is encoded.  One
encoder (:func:`_pack_page`), one decoder (:func:`_unpack_page`), and
malformed input is a ``StorageError``.

**Who holds bytes.**  The memory page store moves ``PageImage`` objects and
never calls the serde, so its slots are plain dicts.  An image decoded from
a persistent store remembers the blob it came from (``from_bytes(b).to_bytes()
is b``), and an unmodified thawed page hands back the same image, so a clean
page crosses DRAM → flash → disk without its body being re-encoded — nor
decoded past what is read: a decoded page answers ``get`` from its validated
columns (:class:`_ColumnarRun`) and builds its dict only when written,
iterated, compared or probed often.  A freshly frozen image holds no bytes
and is encoded when a store writes it.  The blob dies with the image: after
``put`` / ``delete`` / ``stamp`` (or the ``slots`` setter) a page freezes to
a new image, which holds no bytes.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, pairwise, repeat
from typing import Any

from repro.errors import StorageError

#: Page header layout: magic, page_id, pageLSN, slot count.
_HEADER = struct.Struct("<IqqI")
_MAGIC = 0xFACE_CA0E

#: Run header: kind, slot count, signature length, string-heap length.
_RUN = struct.Struct("<BIHI")
_RUN_COLUMNS = 1  # the only run kind: any other is a StorageError

#: Signature alphabet of a columnar run: one byte per key and row column.
_INT, _FLOAT, _STR, _NONE = b"qdsn"
_COLUMN_CHAR = {int: _INT, bool: _INT, float: _FLOAT, str: _STR, type(None): _NONE}
#: ``struct`` code of each column kind's numbers (``s``: the string lengths,
#: in characters; ``n``: nothing stored).
_COLUMN_CODE = {_INT: "q", _FLOAT: "d", _STR: "I", _NONE: ""}
#: Type of each column kind's decoded values (what a probed key part must be).
_COLUMN_TYPE = {_INT: int, _FLOAT: float, _STR: str, _NONE: type(None)}
#: Key-column scans before a run builds its dict: one build, not n scans.
_PROBES_BEFORE_DICT = 8

_new = object.__new__


@dataclass(frozen=True)
class PageImage:
    """Immutable snapshot of a page as stored on flash or disk.

    ``slots`` maps slot number -> row tuple: a dict, or for an image
    decoded from a single columnar run the :class:`_ColumnarRun` that
    builds that dict on demand.  The mapping must never be
    mutated once the image exists: it is shared copy-on-write with the
    :class:`Page` that froze it and with every page thawed from it, so an
    image can back any number of cached versions safely (the mvFIFO cache
    keeps several versions of the same page id).
    """

    page_id: int
    lsn: int
    slots: Mapping[int, tuple]

    def to_page(self) -> "Page":
        """Thaw into a mutable DRAM page (sharing ``slots`` copy-on-write)."""
        # Page.__init__, inline: one page is thawed per DRAM miss.
        page = _new(Page)
        page.page_id = self.page_id
        page.lsn = self.lsn
        page._rows = self.slots
        page._image = self
        return page

    def to_bytes(self) -> bytes:
        """The on-media bytes: the blob :meth:`from_bytes` decoded this
        image from if there is one, else a fresh encoding on every call."""
        blob = self.__dict__.get("_blob")
        if blob is None:
            blob = _pack_page(self.page_id, self.lsn, self.slots)
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageImage":
        """Parse an image from its on-media byte layout (exact round-trip);
        it keeps ``data`` outside the dataclass fields, so equality, ``repr``
        and ``__init__`` are those of any other image."""
        data = bytes(data)  # no copy when it already is ``bytes``
        image = cls(*_unpack_page(data))
        image.__dict__["_blob"] = data
        return image

    def __deepcopy__(self, memo: dict) -> "PageImage":
        # Immutable by contract (see class docstring), so forked system
        # states (repro.sim.warmstate) share images instead of copying the
        # row payloads — the dominant bulk of any warmed DBMS graph.
        return self


class Page:
    """A mutable in-DRAM database page of slotted rows.

    Slot keys are integers for heap pages and primary-key tuples for hash
    index bucket pages (see :mod:`repro.db.index`); any hashable key works.
    A new field must also be set by :meth:`PageImage.to_page`, which builds
    pages without calling ``__init__``.
    """

    __slots__ = ("page_id", "lsn", "_rows", "_image")

    def __init__(
        self, page_id: int, lsn: int = 0, slots: dict | None = None
    ) -> None:
        self.page_id = page_id
        self.lsn = lsn
        self._rows: dict = slots if slots is not None else {}
        #: The image ``_rows`` is shared with (copy before any mutation), or
        #: ``None``.  It is also the page's snapshot while its ``lsn`` is the
        #: page's: only :meth:`stamp` (or a direct ``lsn`` store) can change
        #: the LSN without dropping it, and neither touches the rows.
        self._image: PageImage | None = None

    @property
    def slots(self) -> dict:
        return self._rows

    @slots.setter
    def slots(self, mapping: dict) -> None:
        self._rows = mapping
        self._image = None

    # -- row access -----------------------------------------------------------

    def get(self, slot) -> tuple | None:
        """Return the row in ``slot`` or ``None`` if empty."""
        return self._rows.get(slot)

    def put(self, slot, row: tuple, lsn: int) -> None:
        """Install ``row`` at ``slot``, stamping the page with ``lsn``."""
        if self._image is not None:
            self._rows = self._rows.copy()
            self._image = None
        self._rows[slot] = row
        self.lsn = lsn

    def delete(self, slot, lsn: int) -> None:
        """Remove the row at ``slot`` (idempotent), stamping ``lsn``."""
        if self._image is not None:
            self._rows = self._rows.copy()
            self._image = None
        self._rows.pop(slot, None)
        self.lsn = lsn

    def stamp(self, lsn: int) -> None:
        """Advance ``pageLSN`` without changing slot contents.

        Used by trace replay, which applies the *timing and header* effect
        of a logged update (the replayed system never reads row contents).
        The cached image goes stale by its LSN, so the next snapshot is a new
        object as after :meth:`put`; the slot mapping stays shared with it,
        so a later ``put`` or ``delete`` still copies first.
        """
        self.lsn = lsn

    # -- snapshots ----------------------------------------------------------

    def to_image(self) -> PageImage:
        """Freeze the current contents for writing to a non-volatile tier.

        Repeated snapshots of an unmodified page return the same image
        object; the slot mapping transfers to the image copy-on-write.
        """
        image = self._image
        if image is None or image.lsn != self.lsn:
            image = PageImage(self.page_id, self.lsn, self._rows)
            self._image = image
        return image

    def __deepcopy__(self, memo: dict) -> "Page":
        # Freeze, then thaw the copy: both pages share the rows copy-on-write,
        # as every thaw does, so forking a warmed system (repro.sim.warmstate)
        # walks no row.
        return self.to_image().to_page()

    # -- serde ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the on-media byte layout (insertion order preserved)."""
        image = self._image
        if image is not None and image.lsn == self.lsn:
            return image.to_bytes()
        return _pack_page(self.page_id, self.lsn, self._rows)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        """Parse a page from its on-media byte layout."""
        return PageImage.from_bytes(data).to_page()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Page {self.page_id} lsn={self.lsn} rows={len(self.slots)}>"


def _pack_page(page_id: int, lsn: int, slots: Mapping[Any, tuple]) -> bytes:
    """The one page-body encoder: header + one columnar run (module docstring)."""
    keys = list(slots)
    try:
        header = _HEADER.pack(_MAGIC, page_id, lsn, len(keys))
        run = _pack_columns(keys, list(slots.values())) if keys else b""
    except (struct.error, UnicodeEncodeError) as exc:
        raise StorageError(f"page {page_id} is not encodable: {exc}") from None
    if run is None:
        raise StorageError(
            f"page {page_id} is not encodable: its slots are not one columnar "
            "shape (one key arity, one row width, each column of one kind)"
        )
    return header + run


def _pack_columns(keys, rows) -> bytes | None:
    """Encode slots as one columnar run, or ``None`` if they are not one shape."""
    if set(map(type, keys)) == {tuple}:
        arity = len(keys[0])
        if not 0 < arity < 256 or len(set(map(len, keys))) != 1:
            return None
        columns = list(zip(*keys))
    else:
        arity = 0
        columns = [keys]
    if len(set(map(len, rows))) != 1:
        return None
    columns.extend(zip(*rows))
    signature = bytearray([arity])
    numbers: list = []
    heap: list = []
    for column in columns:
        # One set() per column, not one isinstance ladder per value.
        chars = {_COLUMN_CHAR.get(kind) for kind in set(map(type, column))}
        if len(chars) != 1 or None in chars:
            return None
        (char,) = chars
        signature.append(char)
        if char == _STR:
            numbers.extend(map(len, column))
            heap.extend(column)
        elif char != _NONE:
            numbers.extend(column)
    text = "".join(heap).encode("utf-8")
    signature = bytes(signature)
    return b"".join((
        _RUN.pack(_RUN_COLUMNS, len(keys), len(signature), len(text)),
        signature,
        _column_block(signature, len(keys)).pack(*numbers),
        text,
    ))


@lru_cache(maxsize=1024)
def _column_block(signature: bytes, count: int) -> struct.Struct:
    """The ``struct`` of a columnar run's numbers: ``count`` of each column."""
    try:
        codes = [_COLUMN_CODE[char] for char in signature[1:]]
    except KeyError:
        raise StorageError(f"bad column signature {signature!r}") from None
    return struct.Struct("<" + "".join(f"{count}{code}" for code in codes if code))


def _unpack_page(data: bytes) -> tuple[int, int, Mapping]:
    """The one page-body decoder: ``(page_id, lsn, slots)``, failing closed.
    Every check runs here, but the slots are the validated columnar run,
    its dict not yet built (an empty page's are an empty dict)."""
    if len(data) < _HEADER.size:
        raise StorageError("truncated page: header incomplete")
    magic, page_id, lsn, nslots = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise StorageError(f"bad page magic {magic:#x}")
    if len(data) == _HEADER.size and not nslots:
        return page_id, lsn, {}
    try:
        kind, count, sig_len, length = _RUN.unpack_from(data, _HEADER.size)
        if kind != _RUN_COLUMNS:
            raise StorageError(f"unknown run kind {kind}")
        if count != nslots:
            raise StorageError(f"page {page_id}: a run of {count} of {nslots} slots")
        slots, end = _unpack_columns(data, _HEADER.size + _RUN.size, count, sig_len, length)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise StorageError(f"malformed page {page_id}: {exc}") from None
    if end != len(data):
        raise StorageError(f"page {page_id}: {len(data) - end} bytes after its run")
    return page_id, lsn, slots


def _unpack_columns(
    data: bytes, offset: int, count: int, signature_len: int, heap_len: int
) -> tuple["_ColumnarRun", int]:
    """Decode one columnar run; returns it and the offset after it."""
    signature = data[offset : offset + signature_len]
    offset += signature_len
    arity = signature[0]
    if len(signature) != signature_len or signature_len - 1 < (arity or 1):
        raise StorageError("column signature shorter than its key")
    block = _column_block(signature, count)
    numbers = block.unpack_from(data, offset)
    offset += block.size
    heap = data[offset : offset + heap_len]
    if len(heap) != heap_len:
        raise StorageError("truncated string heap")
    return _ColumnarRun(signature, count, numbers, heap.decode("utf-8")), offset + heap_len


def _split_columns(kinds: bytes, count: int, numbers: tuple, text: str) -> list:
    """The leading columns named by ``kinds`` as sequences of their values."""
    columns: list = []
    at = chars = 0
    for char in kinds:
        if char == _NONE:
            columns.append((None,) * count)
            continue
        column = numbers[at : at + count]
        at += count
        if char == _STR:  # lengths, in characters, into the heap
            ends = list(accumulate(column, initial=chars))
            chars = ends[-1]
            column = [text[a:b] for a, b in pairwise(ends)]
        columns.append(column)
    return columns


class _ColumnarRun(Mapping):
    """The slots of one validated columnar run, decoded only as far as read.

    Construction makes every check the dict would have made (heap length in
    characters, no duplicate key) but keeps the column block and the string
    heap.  ``get`` of a key whose type matches the key columns exactly finds
    it with ``index`` on the key column and builds that one row.  Anything
    else — a type twin such as ``True`` for ``1``, iteration, ``==``,
    ``copy``, more than :data:`_PROBES_BEFORE_DICT` probes — builds, once,
    the dict that is this mapping's materialised form and answers from it.
    Read-only like every image's slots: :class:`Page` writes to a ``copy``.
    """

    __slots__ = ("_signature", "_count", "_numbers", "_text", "_shape", "_keys",
                 "_probes", "_dict")

    def __init__(self, signature: bytes, count: int, numbers: tuple, text: str) -> None:
        chars = at = 0
        for char in signature[1:]:
            if char == _STR:
                chars += sum(numbers[at : at + count])
            if char != _NONE:
                at += count
        if chars != len(text):
            raise StorageError("string heap length mismatch")
        arity = signature[0]
        key_columns = _split_columns(signature[1 : 1 + (arity or 1)], count, numbers, text)
        keys = tuple(zip(*key_columns)) if arity > 1 else key_columns[0]
        if len(set(keys)) != count:
            raise StorageError("duplicate slot key in a columnar run")
        types = tuple(_COLUMN_TYPE[char] for char in signature[1 : 1 + (arity or 1)])
        self._signature, self._count, self._numbers, self._text = signature, count, numbers, text
        self._shape = types if arity else types[0]  # the exact type(s) a key must have
        self._keys = keys  # an arity-1 key column holds the bare parts
        self._probes = 0
        self._dict: dict | None = None

    def get(self, key, default=None):
        slots = self._dict
        if slots is None:
            if self._probes < _PROBES_BEFORE_DICT:
                shape = self._shape
                if type(key) is shape:
                    return self._probe(key, default)
                if type(key) is tuple and tuple(map(type, key)) == shape:
                    return self._probe(key[0] if len(shape) == 1 else key, default)
            slots = self._materialise()
        return slots.get(key, default)

    def _probe(self, key, default):
        """The row of ``key`` (in key-column form), read off the columns."""
        self._probes += 1
        try:
            at = self._keys.index(key)
        except ValueError:
            return default
        numbers, count, text = self._numbers, self._count, self._text
        row = []
        column = chars = 0  # where the current column starts: block, heap
        for char in self._signature[1:]:
            value = None
            if char != _NONE:
                value = numbers[column + at]
                if char == _STR:
                    start = chars + sum(numbers[column : column + at])
                    chars += sum(numbers[column : column + count])
                    value = text[start : start + value]
                column += count
            row.append(value)
        return tuple(row[self._signature[0] or 1 :])

    def _build(self) -> dict:
        """The dict of this run's slots, in slot order (a fresh one per call)."""
        arity = self._signature[0]
        columns = _split_columns(self._signature[1:], self._count, self._numbers, self._text)
        keys = zip(*columns[:arity]) if arity else columns[0]
        rows = zip(*columns[arity or 1 :]) if len(columns) > (arity or 1) else repeat(())
        return dict(zip(keys, rows))

    def _materialise(self) -> dict:
        slots = self._dict
        if slots is None:
            slots = self._dict = self._build()
            self._numbers = self._text = self._keys = None
        return slots

    def copy(self) -> dict:
        """A mutable dict of the slots (what a written page holds)."""
        slots = self._dict
        return self._build() if slots is None else slots.copy()

    def __len__(self) -> int:
        return self._count  # exact: construction rejected duplicate keys

    # ``Mapping`` derives ``keys`` / ``items`` / ``values`` / ``in`` / ``==``.
    def __getitem__(self, key):
        return self._materialise()[key]

    def __iter__(self):
        return iter(self._materialise())

    def __repr__(self) -> str:
        return repr(self._materialise())

    def __deepcopy__(self, memo: dict) -> "_ColumnarRun":
        return self  # read-only, like the image that holds it
