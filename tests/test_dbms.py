"""The simulated DBMS: data path precedence, transactions, checkpointing."""

import pytest

from repro.core.config import CachePolicy
from repro.errors import CatalogError, TransactionError
from tests.conftest import KV_SCHEMA, kv_dbms_with, kv_read, kv_write


class TestDataPath:
    def test_read_through_loaded_database(self, kv_dbms):
        assert kv_read(kv_dbms, 5) == (5, "v5")
        assert kv_read(kv_dbms, 63) == (63, "v63")

    def test_dram_hit_avoids_all_devices(self, kv_dbms):
        kv_read(kv_dbms, 5)
        disk_busy = kv_dbms.disk.device.busy_time
        flash_busy = kv_dbms.flash.device.busy_time
        kv_read(kv_dbms, 5)
        assert kv_dbms.disk.device.busy_time == disk_busy
        assert kv_dbms.flash.device.busy_time == flash_busy

    def test_miss_falls_to_disk_when_cache_cold(self, kv_dbms):
        reads_before = kv_dbms.disk.device.stats.read_pages
        kv_read(kv_dbms, 5)
        assert kv_dbms.disk.device.stats.read_pages > reads_before

    def test_flash_preferred_over_disk_after_eviction(self, kv_dbms):
        kv_write(kv_dbms, 0, "dirty0")
        # Touch enough other pages to evict page of key 0 (8-frame pool).
        for k in range(8, 60):
            kv_read(kv_dbms, k)
        disk_reads = kv_dbms.disk.device.stats.read_pages
        assert kv_read(kv_dbms, 0) == (0, "dirty0")  # newest version, from flash
        assert kv_dbms.cache.stats.hits >= 1
        assert kv_dbms.disk.device.stats.read_pages == disk_reads

    def test_empty_allocated_page_reads_as_empty(self, kv_dbms):
        # The kv table allocated 16 pages; all are loaded. Index pages 4;
        # read an allocated-but-sparse bucket: must not raise.
        info = kv_dbms.catalog.index("kv_pk")
        page = kv_dbms.read_page(info.first_page)
        assert page is not None


class TestTransactions:
    def test_committed_update_visible(self, kv_dbms):
        kv_write(kv_dbms, 3, "updated")
        assert kv_read(kv_dbms, 3) == (3, "updated")
        assert kv_dbms.committed == 1

    def test_abort_rolls_back_all_updates(self, kv_dbms):
        tx = kv_dbms.begin()
        for k in (1, 2, 3):
            rid = kv_dbms.index_lookup("kv_pk", (k,))
            kv_dbms.update_row(tx, "kv", rid, (k, "doomed"))
        kv_dbms.abort(tx)
        for k in (1, 2, 3):
            assert kv_read(kv_dbms, k) == (k, f"v{k}")
        assert kv_dbms.aborted == 1

    def test_abort_rolls_back_inserts_and_index_entries(self, kv_dbms):
        tx = kv_dbms.begin()
        rid = kv_dbms.insert_row(tx, "kv", (100, "new"))
        kv_dbms.index_insert(tx, "kv_pk", (100,), rid)
        kv_dbms.abort(tx)
        assert kv_dbms.index_lookup("kv_pk", (100,)) is None
        assert kv_dbms.fetch_row("kv", rid) is None

    def test_finished_transaction_rejects_reuse(self, kv_dbms):
        tx = kv_write(kv_dbms, 1, "x")
        with pytest.raises(TransactionError):
            kv_dbms.commit(tx)
        with pytest.raises(TransactionError):
            kv_dbms.update_slot_tx(tx, 0, 0, ("y",))

    def test_commit_forces_the_log(self, kv_dbms):
        tx = kv_dbms.begin()
        rid = kv_dbms.index_lookup("kv_pk", (1,))
        kv_dbms.update_row(tx, "kv", rid, (1, "forced"))
        kv_dbms.commit(tx)
        assert kv_dbms.log.tail_length == 0

    def test_insert_then_index_roundtrip(self, kv_dbms):
        tx = kv_dbms.begin()
        rid = kv_dbms.insert_row(tx, "kv", (200, "inserted"))
        kv_dbms.index_insert(tx, "kv_pk", (200,), rid)
        kv_dbms.commit(tx)
        assert kv_read(kv_dbms, 200) == (200, "inserted")

    def test_index_delete(self, kv_dbms):
        tx = kv_dbms.begin()
        kv_dbms.index_delete(tx, "kv_pk", (7,))
        kv_dbms.commit(tx)
        assert kv_dbms.index_lookup("kv_pk", (7,)) is None


class TestWalDiscipline:
    def test_dirty_eviction_forces_log_first(self, kv_dbms):
        """WAL rule: no dirty page reaches a non-volatile tier before its
        log records."""
        kv_write(kv_dbms, 0, "logged", commit=False)  # uncommitted update
        for k in range(8, 60):  # force eviction of the dirty page
            kv_read(kv_dbms, k)
        # The update record must be durable even though the tx never
        # committed (it was evicted to the flash cache).
        from repro.wal.records import UpdateRecord

        durable_updates = [
            r for r in kv_dbms.log.durable_records() if isinstance(r, UpdateRecord)
        ]
        assert any(r.after == (0, "logged") for r in durable_updates)


class TestCheckpoint:
    def test_face_checkpoint_flushes_to_flash_not_disk(self, kv_dbms):
        kv_write(kv_dbms, 1, "ckpt")
        disk_writes = kv_dbms.disk.device.stats.write_pages
        flushed = kv_dbms.checkpoint()
        assert flushed >= 1
        assert kv_dbms.disk.device.stats.write_pages == disk_writes
        assert kv_dbms.checkpoints == 1

    def test_hdd_checkpoint_flushes_to_disk(self):
        dbms = kv_dbms_with(CachePolicy.NONE)
        kv_write(dbms, 1, "ckpt")
        dbms.checkpoint()
        assert dbms.disk.device.stats.write_pages >= 1

    def test_checkpoint_emits_durable_record(self, kv_dbms):
        kv_dbms.checkpoint()
        from repro.wal.records import CheckpointRecord

        assert any(
            isinstance(r, CheckpointRecord) for r in kv_dbms.log.durable_records()
        )
        assert kv_dbms.log.last_checkpoint_lsn is not None

    def test_checkpoint_records_active_transactions(self, kv_dbms):
        tx = kv_write(kv_dbms, 1, "inflight", commit=False)
        kv_dbms.checkpoint()
        from repro.wal.records import CheckpointRecord

        record = [
            r for r in kv_dbms.log.durable_records() if isinstance(r, CheckpointRecord)
        ][-1]
        assert tx.txid in record.active_txids
        kv_dbms.commit(tx)


class TestLoaderErrors:
    def test_load_outside_load_mode_rejected(self, kv_dbms):
        with pytest.raises(CatalogError):
            kv_dbms.load_insert("kv", (999, "x"))
        with pytest.raises(CatalogError):
            kv_dbms.finish_load()


class TestMetrics:
    def test_resource_times_keys(self, kv_dbms):
        times = kv_dbms.resource_times()
        assert set(times) == {"cpu", "disk", "log", "flash"}

    def test_wall_clock_is_bottleneck_max(self, kv_dbms):
        for k in range(30):
            kv_read(kv_dbms, k)
        assert kv_dbms.wall_clock() == max(kv_dbms.resource_times().values())

    def test_reset_measurements(self, kv_dbms):
        kv_write(kv_dbms, 1, "x")
        kv_dbms.reset_measurements()
        assert kv_dbms.wall_clock() == 0.0
        assert kv_dbms.committed == 0
        assert kv_dbms.buffer.stats.accesses == 0

    def test_cpu_charged_per_access_and_tx(self, kv_dbms):
        before = kv_dbms.cpu_time
        kv_write(kv_dbms, 1, "x")
        expected_min = kv_dbms.config.cpu_per_tx + kv_dbms.config.cpu_per_page_access
        assert kv_dbms.cpu_time - before >= expected_min
