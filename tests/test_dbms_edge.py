"""Engine edge cases: growth wrap, empty pages, multi-table interplay."""

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.db.schema import TableSchema, int_col, str_col
from repro.errors import CatalogError
from tests.conftest import KV_SCHEMA, kv_dbms_with, kv_read, kv_write, tiny_config


class TestHeapWrapUnderTransactions:
    def test_ring_append_recycles_and_stays_recoverable(self):
        dbms = SimulatedDBMS(tiny_config(CachePolicy.FACE))
        schema = TableSchema(
            "ring", (int_col("n"), str_col("v", 8)), ("n",), slots_per_page=4
        )
        dbms.create_table(schema, expected_rows=16)  # capacity 16 rows
        dbms.begin_load()
        dbms.finish_load()
        tx = dbms.begin()
        rids = [dbms.insert_row(tx, "ring", (n, f"v{n}")) for n in range(20)]
        dbms.commit(tx)
        assert rids[16] == rids[0]  # wrapped onto the first slot
        assert dbms.fetch_row("ring", rids[0]) == (16, "v16")
        assert dbms.tables["ring"].wrapped

    def test_wrap_survives_crash(self):
        from repro.recovery.restart import crash_and_restart

        dbms = SimulatedDBMS(tiny_config(CachePolicy.FACE))
        schema = TableSchema(
            "ring", (int_col("n"),), ("n",), slots_per_page=4
        )
        dbms.create_table(schema, expected_rows=8)
        dbms.begin_load()
        dbms.finish_load()
        tx = dbms.begin()
        for n in range(12):
            dbms.insert_row(tx, "ring", (n,))
        dbms.commit(tx)
        crash_and_restart(dbms)
        heap = dbms.tables["ring"]
        assert dbms.fetch_row("ring", heap.rid_for_rownum(8)) == (8,)


class TestMultiTable:
    def test_transaction_spanning_tables_and_indexes(self, kv_dbms):
        second = TableSchema(
            "kv2", (int_col("k"), str_col("v", 8)), ("k",), slots_per_page=8
        )
        kv_dbms.create_table(second, expected_rows=32)
        kv_dbms.create_index("kv2_pk", "kv2", n_pages=2)
        tx = kv_dbms.begin()
        rid_a = kv_dbms.index_lookup("kv_pk", (1,))
        kv_dbms.update_row(tx, "kv", rid_a, (1, "linked"))
        rid_b = kv_dbms.insert_row(tx, "kv2", (1, "twin"))
        kv_dbms.index_insert(tx, "kv2_pk", (1,), rid_b)
        kv_dbms.abort(tx)
        assert kv_read(kv_dbms, 1) == (1, "v1")
        assert kv_dbms.index_lookup("kv2_pk", (1,)) is None

    def test_duplicate_table_registration_rejected(self, kv_dbms):
        with pytest.raises(CatalogError):
            kv_dbms.create_table(KV_SCHEMA, expected_rows=1)


class TestColdReads:
    def test_reading_never_written_growth_page_yields_empty(self, kv_dbms):
        info = kv_dbms.catalog.tables["kv"]
        empty_page_id = info.end_page - 1  # growth headroom, never loaded
        page = kv_dbms.read_page(empty_page_id)
        assert page.slots == {}
        assert page.lsn == 0

    def test_cold_read_charges_disk_once_then_caches(self, kv_dbms):
        info = kv_dbms.catalog.tables["kv"]
        empty_page_id = info.end_page - 1
        reads_before = kv_dbms.disk.device.stats.read_pages
        kv_dbms.read_page(empty_page_id)
        kv_dbms.read_page(empty_page_id)  # DRAM hit now
        assert kv_dbms.disk.device.stats.read_pages == reads_before + 1


class TestCommittedCounters:
    def test_commit_abort_counters(self, kv_dbms):
        kv_write(kv_dbms, 1, "a")
        tx = kv_dbms.begin()
        kv_dbms.abort(tx)
        assert kv_dbms.committed == 1
        assert kv_dbms.aborted == 1

    def test_empty_transaction_commits_cleanly(self, kv_dbms):
        tx = kv_dbms.begin()
        kv_dbms.commit(tx)
        assert kv_dbms.committed == 1
        assert len(kv_dbms.log._tail) == 0
