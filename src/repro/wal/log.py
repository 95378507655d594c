"""Log manager: LSN assignment, group force, crash semantics.

Two standard recovery principles the paper states it keeps (Section 4) are
enforced here:

* **Write-ahead logging** — the data path calls :meth:`force_up_to` with a
  page's LSN before that page is written to any non-volatile tier; the
  manager asserts the discipline by tracking ``flushed_lsn``.
* **Commit-time force** — :meth:`commit` appends a commit record and forces
  the tail.

The log lives on its own disk device (standard OLTP deployment practice);
forces are charged as sequential writes of the pending bytes rounded up to
whole pages, which naturally models group commit: many small records forced
together cost one bandwidth-priced write.

Crash semantics: records appended but not yet forced are lost; forced
records survive and are what recovery replays.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import WALError
from repro.obs import OBS
from repro.storage.device import Device
from repro.storage.profiles import PAGE_SIZE
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    LogRecord,
    UpdateRecord,
)


class LogManager:
    """Append-only WAL over a dedicated log device."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._next_lsn = 1
        self._durable: list[LogRecord] = []
        self._tail: list[LogRecord] = []
        self._tail_bytes = 0
        self._head_lba = 0
        self.flushed_lsn = 0
        self.forces = 0
        self.last_checkpoint_lsn: int | None = None
        # Pages that already got a full-page-write record since the last
        # checkpoint (PostgreSQL full_page_writes discipline).
        self._fpw_done: set[int] = set()

    # -- appends ------------------------------------------------------------

    def _append(self, record: LogRecord) -> LogRecord:
        self._tail.append(record)
        self._tail_bytes += record.size_bytes()
        return record

    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    def log_begin(self, txid: int) -> BeginRecord:
        return self._append(BeginRecord(self._take_lsn(), txid))

    def log_update(
        self,
        txid: int,
        page_id: int,
        slot,
        before: tuple | None,
        after: tuple | None,
    ) -> UpdateRecord:
        return self._append(
            UpdateRecord(self._take_lsn(), txid, page_id, slot, before, after)
        )

    def log_update_sized(
        self, txid: int, page_id: int, payload_bytes: int
    ) -> UpdateRecord:
        """Append an update record of a pre-measured size (trace replay).

        The record carries no row images — only the page id and the
        variable-length byte count measured when the update was originally
        traced — so the tail-byte accounting, force page counts and LSN
        sequence are identical to :meth:`log_update` at a fraction of the
        cost.  Crash recovery redoes such a record as a pageLSN stamp (row
        images are untimed state), so replayed systems restart with a
        bit-identical :class:`~repro.recovery.restart.RestartReport`.
        """
        return self._append(
            UpdateRecord(
                self._take_lsn(), txid, page_id, payload_bytes=payload_bytes
            )
        )

    def take_fpw(self, page_id: int) -> bool:
        """True exactly once per page per checkpoint cycle: the caller must
        then attach a full-page image to the page's update record."""
        if page_id in self._fpw_done:
            return False
        self._fpw_done.add(page_id)
        return True

    def attach_full_page_image(self, record: UpdateRecord, image) -> UpdateRecord:
        """Make the just-appended record a full-page write; returns it.

        Must be called before any further append (the record must still be
        the tail's last entry)."""
        if not self._tail or self._tail[-1] is not record:
            raise WALError("full-page image must be attached to the last append")
        if record.page_image is None:
            self._tail_bytes += PAGE_SIZE
        record.page_image = image
        return record

    def log_abort(self, txid: int) -> AbortRecord:
        return self._append(AbortRecord(self._take_lsn(), txid))

    def log_checkpoint(
        self, active_txids: frozenset[int], oldest_needed_lsn: int | None = None
    ) -> CheckpointRecord:
        """Append and force a checkpoint record, then recycle old log.

        ``oldest_needed_lsn`` is the caller's undo horizon (begin LSN of the
        oldest still-active transaction); records older than both it and the
        *previous* checkpoint are no longer needed by any future restart and
        are dropped — the standard log-truncation rule, which also keeps a
        week-long simulated run's memory bounded.
        """
        previous_checkpoint = self.last_checkpoint_lsn
        # A checkpoint makes every page durable below it: full-page images
        # are needed afresh for the pages' next updates.
        self._fpw_done.clear()
        record = self._append(CheckpointRecord(self._take_lsn(), active_txids))
        self.force()
        self.last_checkpoint_lsn = record.lsn
        if OBS.enabled:
            OBS.counter("wal.checkpoints").inc()
        if previous_checkpoint is not None:
            horizon = previous_checkpoint
            if oldest_needed_lsn is not None:
                horizon = min(horizon, oldest_needed_lsn)
            before = len(self._durable)
            self._durable = [r for r in self._durable if r.lsn >= horizon]
            if OBS.enabled:
                truncated = before - len(self._durable)
                if truncated:
                    OBS.counter("wal.truncations").inc()
                    OBS.counter("wal.truncated_records").inc(truncated)
        return record

    def commit(self, txid: int) -> CommitRecord:
        """Append a commit record and force the tail (durability point)."""
        record = self._append(CommitRecord(self._take_lsn(), txid))
        self.force()
        return record

    # -- forcing ---------------------------------------------------------------

    def force(self) -> None:
        """Flush the entire in-memory tail to the log device."""
        if not self._tail:
            return
        npages = max(1, -(-self._tail_bytes // PAGE_SIZE))
        if OBS.enabled:
            OBS.counter("wal.force.count").inc()
            OBS.counter("wal.force.bytes").inc(self._tail_bytes)
            OBS.counter("wal.force.pages").inc(npages)
        if self._head_lba + npages > self.device.capacity_pages:
            self._head_lba = 0  # circular log; old segments recycled
        self.device.write(self._head_lba, npages)
        self._head_lba += npages
        self._durable.extend(self._tail)
        self.flushed_lsn = self._tail[-1].lsn
        self._tail.clear()
        self._tail_bytes = 0
        self.forces += 1

    def force_up_to(self, lsn: int) -> None:
        """WAL rule: ensure every record with LSN <= ``lsn`` is durable.

        The tail is forced as a whole (records are not reordered), so this
        simply forces when the requested LSN is still volatile.
        """
        if lsn > self.flushed_lsn:
            if not self._tail or lsn > self._tail[-1].lsn:
                raise WALError(
                    f"force_up_to({lsn}) beyond last appended LSN "
                    f"{self._tail[-1].lsn if self._tail else self.flushed_lsn}"
                )
            self.force()

    # -- crash & recovery access ------------------------------------------------

    def crash(self) -> int:
        """Lose the volatile tail; return the number of records lost."""
        lost = len(self._tail)
        self._tail.clear()
        self._tail_bytes = 0
        return lost

    def durable_records(self) -> list[LogRecord]:
        """All records that survived (forced before any crash)."""
        return list(self._durable)

    def adopt_durable(
        self,
        records: list[LogRecord],
        *,
        head_lba: int = 0,
        last_checkpoint_lsn: int | None = None,
    ) -> None:
        """Restore the durable log of a previous process (hard-crash restart).

        The in-process :meth:`crash` keeps ``_durable`` alive because the
        process survives; after a real ``SIGKILL`` a fresh ``LogManager``
        must re-adopt the forced records the victim serialised before dying.
        The volatile tail stays empty — exactly what a crash loses — and
        ``_next_lsn`` continues after the adopted records so recovery's own
        undo/checkpoint appends extend the same LSN sequence as the
        in-process model.
        """
        self._durable = list(records)
        self._tail.clear()
        self._tail_bytes = 0
        self.flushed_lsn = records[-1].lsn if records else 0
        self._next_lsn = (max(r.lsn for r in records) + 1) if records else 1
        self._head_lba = head_lba
        self.last_checkpoint_lsn = last_checkpoint_lsn
        self._fpw_done.clear()

    def records_from(self, lsn: int) -> Iterator[LogRecord]:
        """Iterate durable records with LSN >= ``lsn`` in log order."""
        # The durable list is LSN-ordered; bisect would also work but a scan
        # start found once per recovery is not on any hot path.
        for record in self._durable:
            if record.lsn >= lsn:
                yield record

    def charge_recovery_scan(self, records: list[LogRecord]) -> None:
        """Charge the sequential read of ``records`` during restart."""
        nbytes = sum(r.size_bytes() for r in records)
        npages = max(1, -(-nbytes // PAGE_SIZE))
        start = max(0, min(self._head_lba, self.device.capacity_pages - npages))
        self.device.read(start, npages)

    @property
    def tail_length(self) -> int:
        """Records appended but not yet forced (volatile)."""
        return len(self._tail)
