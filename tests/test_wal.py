"""WAL: LSNs, force discipline, crash semantics, truncation."""

import pytest

from repro.errors import WALError
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K
from repro.wal.log import LogManager
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    UpdateRecord,
)


@pytest.fixture
def log() -> LogManager:
    return LogManager(DiskDevice(HDD_CHEETAH_15K, 1024))


def test_lsns_are_monotonic(log):
    records = [
        log.log_begin(1),
        log.log_update(1, 5, 0, None, ("a",)),
        log.commit(1),
    ]
    lsns = [r.lsn for r in records]
    assert lsns == sorted(lsns)
    assert len(set(lsns)) == 3


def test_appends_are_volatile_until_forced(log):
    log.log_begin(1)
    log.log_update(1, 5, 0, None, ("a",))
    assert log.flushed_lsn == 0
    assert log.durable_records() == []
    assert len(log._tail) == 2


def test_commit_forces_the_tail(log):
    log.log_begin(1)
    record = log.commit(1)
    assert log.flushed_lsn == record.lsn
    assert len(log._tail) == 0
    kinds = [type(r) for r in log.durable_records()]
    assert kinds == [BeginRecord, CommitRecord]


def test_lifecycle_records_are_the_frozen_dataclasses(log):
    built = [log.log_begin(7), log.log_abort(7), log.log_begin(8), log.commit(8)]
    expected = [BeginRecord(1, 7), AbortRecord(2, 7), BeginRecord(3, 8), CommitRecord(4, 8)]
    assert built == expected and list(map(repr, built)) == list(map(repr, expected))
    for record in built:
        with pytest.raises(AttributeError):
            record.lsn = 0


def test_force_charges_one_sequential_write_group_commit(log):
    for tx in range(20):
        log.log_begin(tx)
        log.log_update(tx, tx, 0, None, ("x",))
    stats = log.device.stats
    before = stats.seq_write_ops + stats.random_write_ops
    log.force()
    assert stats.seq_write_ops + stats.random_write_ops == before + 1


def test_force_up_to_noop_when_already_durable(log):
    log.log_begin(1)
    log.force()
    forces = log.forces
    log.force_up_to(1)
    assert log.forces == forces


def test_force_up_to_flushes_when_needed(log):
    log.log_begin(1)
    record = log.log_update(1, 5, 0, None, ("a",))
    log.force_up_to(record.lsn)
    assert log.flushed_lsn >= record.lsn


def test_force_up_to_beyond_appended_raises(log):
    log.log_begin(1)
    with pytest.raises(WALError):
        log.force_up_to(999)


def test_crash_loses_only_the_tail(log):
    log.log_begin(1)
    log.force()
    log.log_update(1, 5, 0, None, ("a",))
    lost = log.crash()
    assert lost == 1
    assert len(log.durable_records()) == 1


def test_checkpoint_sets_marker_and_forces(log):
    log.log_begin(1)
    record = log.log_checkpoint(frozenset({1}))
    assert isinstance(record, CheckpointRecord)
    assert log.last_checkpoint_lsn == record.lsn
    assert log.flushed_lsn == record.lsn


def test_truncation_drops_records_older_than_previous_checkpoint(log):
    log.log_begin(1)
    log.commit(1)
    first = log.log_checkpoint(frozenset())
    log.log_begin(2)
    log.commit(2)
    log.log_checkpoint(frozenset())
    lsns = [r.lsn for r in log.durable_records()]
    assert min(lsns) == first.lsn


def test_truncation_respects_oldest_active_transaction(log):
    begin = log.log_begin(1)  # long-running tx
    log.log_checkpoint(frozenset({1}))
    log.log_checkpoint(frozenset({1}), oldest_needed_lsn=begin.lsn)
    lsns = [r.lsn for r in log.durable_records()]
    assert begin.lsn in lsns  # still needed for undo


def test_circular_log_wraps_instead_of_overflowing():
    log = LogManager(DiskDevice(HDD_CHEETAH_15K, capacity_pages=4))
    for tx in range(50):
        log.log_begin(tx)
        log.log_update(tx, 1, 0, None, ("payload" * 30,))
        log.commit(tx)
    assert log.device.stats.write_pages >= 50  # kept writing, no overflow


def test_record_sizes_scale_with_payload():
    small = UpdateRecord(1, 1, 5, 0, None, ("a",))
    large = UpdateRecord(2, 1, 5, 0, ("x" * 200,), ("y" * 200,))
    assert large.size_bytes() > small.size_bytes() > 40
    assert AbortRecord(1, 7).size_bytes() == BeginRecord(1, 7).size_bytes()


def test_charge_recovery_scan_reads_sequentially(log):
    for tx in range(10):
        log.log_begin(tx)
        log.commit(tx)
    records = log.durable_records()
    log.charge_recovery_scan(records)
    assert log.device.stats.read_pages >= 1
    assert log.device.stats.random_read_ops + log.device.stats.seq_read_ops == 1
