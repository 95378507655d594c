"""Database restart after a crash (Section 4.2 + standard ARIES phases).

The restart sequence, timed end to end:

1. **Flash-cache metadata restore** — delegated to the policy.  FaCE reads
   its persistent metadata segments and scans up to two segments' worth of
   data pages at the queue rear; TAC reads its slot directory; LC and the
   null cache have nothing usable.
2. **Analysis** — scan the durable log from the most recent checkpoint:
   winners (commit record found), losers (begun or checkpoint-active but
   never resolved).
3. **Redo** — replay update records in LSN order.  Pages are fetched
   through the *normal* data path, which is where FaCE's speedup comes
   from: with the flash cache restored, the paper measured >98 % of
   recovery page reads served by flash instead of the disk array.
   A record is applied only when the fetched page's ``pageLSN`` is older.
4. **Undo** — roll back losers' updates (reverse LSN order) as logged
   compensating updates under a recovery transaction.
5. **End-of-recovery checkpoint**, as PostgreSQL performs, so the system
   resumes with a clean redo horizon.

Restart time is the *sum* of the resource time consumed by these phases —
recovery is a single serial thread, unlike normal processing where 50
clients overlap the devices (which is why normal wall-clock uses the
bottleneck maximum instead).

Restarts work on trace-replayed systems too (crash cells on the fast
path).  Their update records have the same LSNs, page ids, byte sizes and
full-page images as the originals but no row images (``slot is None``), and
redo handles them with a pageLSN stamp instead of a slot write: row
contents are untimed simulation state, and every timed step (page fetch
path, LSN compare, FPW install, dirty flags) is driven identically — which
keeps every report field bit-identical to a full execution of the same
cell (DESIGN.md §11).  With observability enabled each restart
is also published to the ``recovery.*`` metric namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dbms import SimulatedDBMS
from repro.errors import RecoveryError
from repro.obs import OBS
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    UpdateRecord,
)

@dataclass
class RestartReport:
    """Everything Table 6 / Section 5.5 reports about one restart."""

    total_time: float = 0.0
    metadata_restore_time: float = 0.0
    cache_survived: bool = False
    log_records_scanned: int = 0
    redo_applied: int = 0
    redo_skipped: int = 0
    fpw_installed: int = 0
    pages_from_flash: int = 0
    pages_from_disk: int = 0
    losers: int = 0
    undo_applied: int = 0
    end_checkpoint_pages: int = 0
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def flash_read_fraction(self) -> float:
        """Fraction of recovery page fetches served by the flash cache."""
        total = self.pages_from_flash + self.pages_from_disk
        return self.pages_from_flash / total if total else 0.0


class RecoveryManager:
    """Runs the restart sequence against a crashed :class:`SimulatedDBMS`."""

    def __init__(self, dbms: SimulatedDBMS) -> None:
        self.dbms = dbms

    # -- helpers ---------------------------------------------------------------

    def _elapsed(self) -> float:
        """Serial time consumed so far (sum of all resources)."""
        return sum(self.dbms.resource_times().values())

    # -- the restart sequence ------------------------------------------------------

    def restart(self) -> RestartReport:
        """Restore the database to a consistent state; return timings."""
        devices = [self.dbms.disk.device, self.dbms.log.device]
        if self.dbms.flash is not None:
            devices.append(self.dbms.flash.device)
        for device in devices:
            device.serial_mode = True  # recovery is a single thread: QD=1
        try:
            return self._restart_serial()
        finally:
            for device in devices:
                device.serial_mode = False

    def _restart_serial(self) -> RestartReport:
        dbms = self.dbms
        report = RestartReport()
        start = self._elapsed()

        # Phase 1: restore the flash-cache metadata directory.
        with OBS.span("recovery.metadata", clock=self._elapsed):
            timings = dbms.cache.recover()
        report.metadata_restore_time = timings.metadata_restore_time
        report.cache_survived = timings.cache_survives
        report.phase_times["metadata"] = self._elapsed() - start

        # Phase 2: analysis.
        mark = self._elapsed()
        with OBS.span("recovery.analysis", clock=self._elapsed):
            records = dbms.log.durable_records()
            checkpoint, redo_start_index = self._find_checkpoint(records)
            winners, resolved, losers = self._classify(records, checkpoint)
            replay = records[redo_start_index:]
            dbms.log.charge_recovery_scan(replay)
        report.log_records_scanned = len(replay)
        report.losers = len(losers)
        report.phase_times["analysis"] = self._elapsed() - mark

        # Phase 3: redo.
        mark = self._elapsed()
        redo_span = OBS.span("recovery.redo", clock=self._elapsed)
        redo_span.__enter__()
        cache_stats = dbms.cache.stats
        hits_before, lookups_before = cache_stats.hits, cache_stats.lookups
        for record in replay:
            if not isinstance(record, UpdateRecord):
                continue
            if record.page_image is not None:
                # Full-page write: install straight from the log — no base
                # copy is read (PostgreSQL full_page_writes semantics).
                if self._install_full_page(record):
                    report.fpw_installed += 1
                else:
                    report.redo_skipped += 1
                continue
            frame = dbms._get_frame(record.page_id)
            if frame.page.lsn >= record.lsn:
                report.redo_skipped += 1
                continue
            slot = record.slot
            if slot is None:
                # Sized/replayed record: no row images travelled with it.
                # Stamping the pageLSN is the entire redo effect — content
                # is untimed, and the stamp is exactly what put/delete do
                # to the page header.
                frame.page.stamp(record.lsn)
            elif record.after is None:
                frame.page.delete(slot, record.lsn)
            else:
                frame.page.put(slot, record.after, record.lsn)
            # Redo does not relog; the page is now newer than both
            # non-volatile copies, exactly as a fresh update would be.
            frame.dirty = True
            frame.fdirty = True
            report.redo_applied += 1
        redo_span.__exit__(None, None, None)
        report.pages_from_flash = cache_stats.hits - hits_before
        report.pages_from_disk = (cache_stats.lookups - lookups_before) - (
            cache_stats.hits - hits_before
        )
        if OBS.enabled:
            OBS.counter("recovery.redo.from_flash").inc(report.pages_from_flash)
            OBS.counter("recovery.redo.from_disk").inc(report.pages_from_disk)
        report.phase_times["redo"] = self._elapsed() - mark

        # Phase 4: undo losers via compensating updates.
        mark = self._elapsed()
        with OBS.span("recovery.undo", clock=self._elapsed):
            if losers:
                loser_updates = [
                    r
                    for r in records
                    if isinstance(r, UpdateRecord) and r.txid in losers
                ]
                recovery_tx = dbms.begin()
                for record in reversed(loser_updates):
                    if record.slot is None:
                        # A sized/replayed record carries no before-image to
                        # compensate with.  It can never be a loser in
                        # practice — every replayed transaction ends at a
                        # commit/abort boundary, which forces the log — so
                        # reaching here means the protocol was violated.
                        raise RecoveryError(
                            "cannot undo a sized/replayed update record "
                            f"(lsn {record.lsn}): no before-image was logged"
                        )
                    dbms.update_slot_tx(
                        recovery_tx, record.page_id, record.slot, record.before
                    )
                    report.undo_applied += 1
                dbms.commit(recovery_tx)
                dbms.committed -= 1  # bookkeeping tx, not workload throughput
        report.phase_times["undo"] = self._elapsed() - mark

        # Phase 5: end-of-recovery checkpoint.
        mark = self._elapsed()
        with OBS.span("recovery.checkpoint", clock=self._elapsed):
            report.end_checkpoint_pages = dbms.checkpoint()
        report.phase_times["checkpoint"] = self._elapsed() - mark

        report.total_time = self._elapsed() - start
        if OBS.enabled:
            self._publish(report)
        return report

    @staticmethod
    def _publish(report: RestartReport) -> None:
        """Mirror the report into the ``recovery.*`` metric namespace.

        Counters accumulate across restarts (a grid of crash cells sums
        naturally); the gauges hold the most recent restart's headline
        figures; the histogram buckets restart wall time.  ``python -m
        repro stats --crash`` renders this namespace as a table.
        """
        OBS.counter("recovery.restarts").inc()
        OBS.counter("recovery.log.records_scanned").inc(report.log_records_scanned)
        OBS.counter("recovery.redo.applied").inc(report.redo_applied)
        OBS.counter("recovery.redo.skipped").inc(report.redo_skipped)
        OBS.counter("recovery.fpw.installed").inc(report.fpw_installed)
        OBS.counter("recovery.undo.applied").inc(report.undo_applied)
        OBS.gauge("recovery.flash_read_fraction").set(report.flash_read_fraction)
        OBS.gauge("recovery.cache_survived").set(float(report.cache_survived))
        OBS.gauge("recovery.metadata.restore_seconds").set(
            report.metadata_restore_time
        )
        OBS.histogram("recovery.restart.seconds").observe(report.total_time)

    def _install_full_page(self, record: UpdateRecord) -> bool:
        """Install a logged full-page image; returns False if already newer.

        The page is materialised in the DRAM buffer without touching the
        flash cache or disk: the image came with the (already-charged) log
        scan.  Subsequent redo records for the page layer on top of it.
        """
        dbms = self.dbms
        dbms.cpu_time += dbms.config.cpu_per_page_access
        frame = dbms.buffer.lookup(record.page_id)
        if frame is not None:
            if frame.page.lsn >= record.lsn:
                return False
            frame.page = record.page_image.to_page()
        else:
            victim = dbms.buffer.make_room()
            if victim is not None:
                dbms._evict(victim)
            frame = dbms.buffer.admit(record.page_image.to_page())
        frame.dirty = True
        frame.fdirty = True
        return True

    # -- analysis helpers ------------------------------------------------------------

    @staticmethod
    def _find_checkpoint(records) -> tuple[CheckpointRecord | None, int]:
        """Most recent durable checkpoint and the index redo starts from."""
        for i in range(len(records) - 1, -1, -1):
            if isinstance(records[i], CheckpointRecord):
                return records[i], i + 1
        return None, 0

    @staticmethod
    def _classify(
        records, checkpoint: CheckpointRecord | None
    ) -> tuple[set[int], set[int], set[int]]:
        """Partition transaction ids into winners, resolved-aborts, losers."""
        begun: set[int] = set(checkpoint.active_txids) if checkpoint else set()
        winners: set[int] = set()
        aborted: set[int] = set()
        for record in records:
            if isinstance(record, BeginRecord):
                begun.add(record.txid)
            elif isinstance(record, CommitRecord):
                winners.add(record.txid)
            elif isinstance(record, AbortRecord):
                aborted.add(record.txid)
        losers = begun - winners - aborted
        return winners, aborted, losers


def crash_and_restart(dbms: SimulatedDBMS) -> RestartReport:
    """Convenience: crash ``dbms`` and immediately run restart."""
    dbms.crash()
    report = RecoveryManager(dbms).restart()
    if report is None:  # pragma: no cover - defensive
        raise RecoveryError("restart produced no report")
    return report
