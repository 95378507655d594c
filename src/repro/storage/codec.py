"""Byte codec for everything the simulation stores in a page store.

Persistent backends (:mod:`repro.storage.persistent`) hold *bytes*, not
Python objects, so every storable object kind needs a stable on-media
encoding that round-trips exactly:

* :class:`~repro.db.page.PageImage` — via its own ``to_bytes`` /
  ``from_bytes`` serde (a header and one columnar run, described in
  :mod:`repro.db.page`).  An image decoded here carries the bytes it was
  decoded from, so encoding it again — a clean page admitted to flash, a
  cache slot written back to disk — prepends the kind tag and copies; only
  an image frozen from a page modified since it was decoded (``Page.put`` /
  ``delete`` / ``stamp`` dropped the old image, bytes included) is encoded,
  and at most once when the store it is written to remembers it (below);
* :class:`~repro.flashcache.metadata.CacheSlotImage` — the cache-region
  footer (position, dirty) wrapping a page image (Section 4.1);
* the flash metadata region's superblock and segment images;
* ``None`` — segment padding pages (a flushed metadata segment occupies
  ``segment_pages`` LBAs, all but the first empty).

Nothing else is storable: encoding any other object is a
:class:`~repro.errors.StorageError`.

Decoding fails closed: a truncated, overlong or malformed blob of any
kind — a dirty byte other than 0 or 1 included — is a
:class:`~repro.errors.StorageError`, never a raw ``struct.error`` and never
a value that re-encodes to different bytes.

Decoding reconstructs equal objects (dataclass ``frozen=True`` equality /
tuple equality), which is all the simulation ever relies on — results
depend on device charges and content comparisons, never object identity —
so a cell run against an encode/decode backend stays bit-identical to the
in-memory dict (pinned in ``tests/test_page_store.py``).

Equal is also why a read need not decode at all.  A persistent store
remembers the object of each LBA's last write, and :func:`is_encoding`
tells it whether the bytes it fetched are still, byte for byte, that
object's encoding; if so it returns the object, else it decodes.  The
comparison is the whole blob, so a byte changed behind the store — a torn
or lost write, another process's update — is decoded and fails closed as
before.  For the body to be compared without being encoded again, a store
that remembers a write encodes it with ``keep``: the image keeps its body,
as a decoded one does.

The flash-cache metadata classes are imported lazily to keep
``repro.storage`` free of an import-time dependency on
``repro.flashcache``.
"""

from __future__ import annotations

import struct

from repro.db.page import PageImage
from repro.errors import StorageError

#: Storable-kind tags (first byte of every encoded blob; 0 is unused).
_KIND_PAGE_IMAGE = 1
_KIND_SLOT_IMAGE = 2
_KIND_SUPERBLOCK = 3
_KIND_SEGMENT = 4
_KIND_NONE = 5

#: CacheSlotImage footer: position, dirty flag.
_SLOT_HEADER = struct.Struct("<qB")
#: Superblock header: front, rear_at_flush, number of segment LBAs.
_SUPER_HEADER = struct.Struct("<qqI")
#: Segment header: first_position, number of entries.
_SEGMENT_HEADER = struct.Struct("<qI")
#: One metadata entry: position, page_id, lsn, dirty — the paper's
#: 24-byte entry plus the dirty byte.
_ENTRY = struct.Struct("<qqqB")

_metadata_module = None
_tuple_new = tuple.__new__


def _metadata():
    """Lazily-imported :mod:`repro.flashcache.metadata` (cycle avoidance)."""
    global _metadata_module
    if _metadata_module is None:
        from repro.flashcache import metadata

        _metadata_module = metadata
    return _metadata_module


def encode_storable(obj: object, keep: bool = False) -> bytes:
    """Encode one storable object to its on-media bytes; with ``keep``, a
    page image that held no bytes keeps the body encoded here."""
    if obj is None:
        return bytes([_KIND_NONE])
    if isinstance(obj, PageImage):
        return bytes([_KIND_PAGE_IMAGE]) + obj.to_bytes(keep)
    meta = _metadata()
    if isinstance(obj, meta.CacheSlotImage):
        return (
            bytes([_KIND_SLOT_IMAGE])
            + _SLOT_HEADER.pack(obj.position, int(obj.dirty))
            + obj.image.to_bytes(keep)
        )
    if isinstance(obj, meta._Superblock):
        parts = [
            bytes([_KIND_SUPERBLOCK]),
            _SUPER_HEADER.pack(obj.front, obj.rear_at_flush, len(obj.segment_lbas)),
        ]
        parts.extend(struct.pack("<q", lba) for lba in obj.segment_lbas)
        return b"".join(parts)
    if isinstance(obj, meta._SegmentImage):
        parts = [
            bytes([_KIND_SEGMENT]),
            _SEGMENT_HEADER.pack(obj.first_position, len(obj.entries)),
        ]
        parts.extend(
            _ENTRY.pack(position, page_id, lsn, int(dirty))
            for position, page_id, lsn, dirty in obj.entries
        )
        return b"".join(parts)
    raise StorageError(f"cannot encode {type(obj).__name__} for a persistent page store")


def is_encoding(obj: object, data, start: int = 0, end: int | None = None) -> bool:
    """Whether ``data[start:end]`` is byte for byte the encoding of ``obj``.

    The whole blob is compared — kind tag, slot header and page body —
    but a page body is compared against the bytes its image keeps, not
    encoded again.  When this holds, ``decode_storable`` of the same bytes
    would return an object equal to ``obj``; when it does not, the caller
    decodes, and every check of the decoder runs.
    """
    if end is None:
        end = len(data)
    if end <= start:
        return False
    kind = data[start]
    if isinstance(obj, PageImage):
        return kind == _KIND_PAGE_IMAGE and data[start + 1 : end] == obj.to_bytes()
    meta = _metadata()
    if isinstance(obj, meta.CacheSlotImage):
        body = start + 1 + _SLOT_HEADER.size
        return (
            kind == _KIND_SLOT_IMAGE
            and data[start + 1 : body] == _SLOT_HEADER.pack(obj.position, int(obj.dirty))
            and data[body:end] == obj.image.to_bytes()
        )
    return data[start:end] == encode_storable(obj)


def decode_storable(data, start: int = 0, end: int | None = None) -> object:
    """Decode ``data[start:end]`` back to an equal storable object; ``data``
    may be the mmap store's window, so a page body is copied once, into the
    ``bytes`` its image keeps."""
    if end is None:
        end = len(data)
    if end <= start:
        raise StorageError("empty storable blob")
    kind = data[start]
    try:
        if kind == _KIND_PAGE_IMAGE:
            return PageImage.from_bytes(data[start + 1 : end])
        meta = _metadata()
        if kind == _KIND_SLOT_IMAGE:
            position, dirty = _SLOT_HEADER.unpack_from(data, start + 1)
            image = PageImage.from_bytes(data[start + 1 + _SLOT_HEADER.size : end])
            # CacheSlotImage(position, dirty, image) without the NamedTuple's
            # Python-level ``__new__``, as ``MvFifoCache`` builds its slots.
            return _tuple_new(meta.CacheSlotImage, (position, _flag(dirty), image))
        data = data[start:end]  # the small kinds decode from their own bytes
        if kind == _KIND_NONE:
            _sized(data, 1, "a None")
            return None
        if kind == _KIND_SUPERBLOCK:
            front, rear, n = _SUPER_HEADER.unpack_from(data, 1)
            _sized(data, 1 + _SUPER_HEADER.size + 8 * n, "a superblock")
            lbas = struct.unpack_from(f"<{n}q", data, 1 + _SUPER_HEADER.size)
            return meta._Superblock(front=front, rear_at_flush=rear, segment_lbas=lbas)
        if kind == _KIND_SEGMENT:
            first_position, n = _SEGMENT_HEADER.unpack_from(data, 1)
            offset = 1 + _SEGMENT_HEADER.size
            _sized(data, offset + n * _ENTRY.size, "a metadata segment")
            entries = tuple(
                (position, page_id, lsn, _flag(dirty))
                for position, page_id, lsn, dirty in _ENTRY.iter_unpack(data[offset:])
            )
            return meta._SegmentImage(first_position=first_position, entries=entries)
        raise StorageError(f"unknown storable kind tag {kind}")
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise StorageError(f"malformed storable blob: {exc}") from None


def _sized(data, size: int, what: str) -> None:
    """Fail closed on a small kind that is not exactly ``size`` bytes."""
    if len(data) != size:
        raise StorageError(f"{what} of {len(data)} bytes, {size} expected")


def _flag(byte: int) -> bool:
    """A stored dirty byte: 0 or 1, as ``encode_storable`` writes it."""
    if byte > 1:
        raise StorageError(f"bad dirty byte {byte}")
    return byte == 1
