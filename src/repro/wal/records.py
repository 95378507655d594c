"""Write-ahead-log record types.

Physiological logging in the style of ARIES / PostgreSQL, at the granularity
the reproduction needs: one :class:`UpdateRecord` per slot change carrying
both before- and after-images, so redo *and* undo are possible, plus
transaction lifecycle and checkpoint records.

Each record reports an estimated on-media size, which is what the log
device's sequential-write timing is charged with at force time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.profiles import PAGE_SIZE

_BASE_RECORD_BYTES = 40  # LSN, prev-LSN, txid, type, CRC, length

#: Public alias — the fixed per-record header size every record type pays.
BASE_RECORD_BYTES = _BASE_RECORD_BYTES


def _value_bytes(value: Any) -> int:
    # Exact-type checks and one explicit loop over a flat row: this runs for
    # both row images of every logged update, where isinstance chains,
    # generator frames and a call per column are measurable.
    kind = type(value)
    if kind is tuple:
        total = 3
        for v in value:
            kind = type(v)
            if kind is int or kind is float:
                total += 9
            elif kind is str:
                total += 5 + len(v)
            elif v is None:
                total += 1
            elif kind is tuple:
                total += _value_bytes(v)
            else:
                total += 9  # bool
        return total
    if kind is str:
        return 5 + len(value)
    if value is None:
        return 1
    return 9  # int / float


def update_payload_bytes(slot: Any, before: tuple | None, after: tuple | None) -> int:
    """Variable-length bytes one slot change contributes to its record.

    This is :meth:`UpdateRecord.size_bytes` minus the fixed header and any
    full-page image.  It is measured once per record — when the record is
    built, or at trace time for a replayed one — and stored on it as
    ``payload_bytes``: what a change costs the log is computed where the
    change is made, never re-derived from the row images.
    """
    return 12 + _value_bytes(slot) + _value_bytes(before) + _value_bytes(after)


@dataclass(frozen=True)
class LogRecord:
    """Base class: every record has an LSN (assigned by the log manager)."""

    lsn: int

    def size_bytes(self) -> int:
        return _BASE_RECORD_BYTES


@dataclass(frozen=True)
class BeginRecord(LogRecord):
    """A transaction started."""

    txid: int


class UpdateRecord:
    """One slot on one page changed.

    ``before is None`` encodes an insert; ``after is None`` a delete.

    ``page_image`` implements full-page writes (PostgreSQL
    ``full_page_writes=on``, which the paper's prototype inherits): the
    first update to a page after a checkpoint carries the complete
    post-update page, so crash recovery can install the page straight from
    the log instead of reading a possibly-torn base copy.  The image costs
    a full page of log volume, charged by :meth:`size_bytes`; the log
    manager sets it on the just-appended record.

    ``payload_bytes`` is :func:`update_payload_bytes` of the row images,
    measured here unless the caller already knows it.  The trace-replay
    fast path (:mod:`repro.sim.replay`) recorded it at trace time and
    passes it back with ``slot``/``before``/``after`` left ``None``: the
    WAL sees a record of exactly the same size — so force timing and
    full-page-write accounting are bit-identical — and recovery redoes it
    as a pageLSN stamp (see :mod:`repro.recovery.restart`).

    Slotted and mutable, not a frozen dataclass: the executed and the
    replayed update paths build one of these per slot change.
    """

    __slots__ = (
        "lsn", "txid", "page_id", "slot", "before", "after", "page_image",
        "payload_bytes",
    )

    def __init__(
        self,
        lsn: int,
        txid: int,
        page_id: int,
        slot: Any = None,
        before: tuple | None = None,
        after: tuple | None = None,
        page_image: Any = None,
        payload_bytes: int | None = None,
    ) -> None:
        self.lsn = lsn
        self.txid = txid
        self.page_id = page_id
        self.slot = slot
        self.before = before
        self.after = after
        self.page_image = page_image
        if payload_bytes is None:
            payload_bytes = update_payload_bytes(slot, before, after)
        self.payload_bytes = payload_bytes

    def size_bytes(self) -> int:
        size = _BASE_RECORD_BYTES + self.payload_bytes
        if self.page_image is not None:
            size += PAGE_SIZE
        return size


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    """A transaction committed; forces the log tail (durability point)."""

    txid: int


@dataclass(frozen=True)
class AbortRecord(LogRecord):
    """A transaction rolled back (its updates were undone before this)."""

    txid: int


@dataclass(frozen=True)
class CheckpointRecord(LogRecord):
    """A completed database checkpoint.

    The reproduction takes flush checkpoints — every dirty DRAM page is
    written to the persistent database (disk, or the flash cache under FaCE,
    Section 4.1) before this record is emitted — so crash recovery starts
    its redo scan at the most recent checkpoint record.

    ``active_txids`` lists transactions in flight at checkpoint time; they
    are undo candidates if no later commit/abort is found.
    """

    active_txids: frozenset[int] = field(default_factory=frozenset)

    def size_bytes(self) -> int:
        return _BASE_RECORD_BYTES + 8 * len(self.active_txids)
