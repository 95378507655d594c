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

_BASE_RECORD_BYTES = 40  # LSN, prev-LSN, txid, type, CRC, length

#: Public alias — the fixed per-record header size every record type pays.
BASE_RECORD_BYTES = _BASE_RECORD_BYTES


def _value_bytes(value: Any) -> int:
    # Exact-type checks and an explicit loop: this runs for every column of
    # every before/after image on the update path, where isinstance chains
    # and generator frames are measurable.
    if type(value) is tuple:
        total = 3
        for v in value:
            total += _value_bytes(v)
        return total
    if type(value) is str:
        return 5 + len(value)
    if value is None:
        return 1
    return 9  # int / float


def update_payload_bytes(slot: Any, before: tuple | None, after: tuple | None) -> int:
    """Variable-length bytes one slot change contributes to its record.

    This is :meth:`UpdateRecord.size_bytes` minus the fixed header and any
    full-page image — the quantity the trace-replay fast path records once
    so replays never re-measure the row images.
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


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    """One slot on one page changed.

    ``before is None`` encodes an insert; ``after is None`` a delete.

    ``page_image`` implements full-page writes (PostgreSQL
    ``full_page_writes=on``, which the paper's prototype inherits): the
    first update to a page after a checkpoint carries the complete
    post-update page, so crash recovery can install the page straight from
    the log instead of reading a possibly-torn base copy.  The image costs
    a full page of log volume, charged by :meth:`size_bytes`.
    """

    txid: int
    page_id: int
    slot: Any
    before: tuple | None
    after: tuple | None
    page_image: Any = None

    def size_bytes(self) -> int:
        size = _BASE_RECORD_BYTES + update_payload_bytes(
            self.slot, self.before, self.after
        )
        if self.page_image is not None:
            size += 4096
        return size


@dataclass(frozen=True)
class SizedUpdateRecord(UpdateRecord):
    """An update record whose variable-length size was measured earlier.

    The trace-replay fast path (:mod:`repro.sim.replay`) records the
    :func:`update_payload_bytes` of every slot change once, at trace time,
    and replays it through this record type: the WAL sees a record of
    exactly the same size — so force timing and full-page-write accounting
    are bit-identical — without re-walking the row images (the single most
    expensive computation on the full-execution update path).
    """

    payload_bytes: int = 0

    def size_bytes(self) -> int:
        size = _BASE_RECORD_BYTES + self.payload_bytes
        if self.page_image is not None:
            size += 4096
        return size


class ReplayUpdateRecord:
    """Slotted, mutable stand-in for :class:`SizedUpdateRecord`.

    The replay inner loop appends hundreds of thousands of update records
    per cell; a frozen dataclass pays ``object.__setattr__`` per field,
    which dominates the loop.  This class carries exactly the state the
    live WAL needs (LSN ordering, byte size, optional full-page image) and
    reports the same :meth:`size_bytes` — records of either type are
    interchangeable in the tail and durable lists.  Like
    :class:`SizedUpdateRecord` it carries no row images, so recovery redo
    treats it as a pageLSN stamp (see :mod:`repro.recovery.restart`).
    """

    __slots__ = ("lsn", "txid", "page_id", "payload_bytes", "page_image")

    def __init__(self, lsn: int, txid: int, page_id: int, payload_bytes: int) -> None:
        self.lsn = lsn
        self.txid = txid
        self.page_id = page_id
        self.payload_bytes = payload_bytes
        self.page_image = None

    def size_bytes(self) -> int:
        size = _BASE_RECORD_BYTES + self.payload_bytes
        if self.page_image is not None:
            size += 4096
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
