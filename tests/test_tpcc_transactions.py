"""Semantic effects of the five TPC-C transactions."""

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.tpcc.loader import load_tpcc
from repro.tpcc.random_gen import TpccRandom
from repro.tpcc.scale import TINY
from repro.tpcc.transactions import TpccTransactions
from tests.conftest import tiny_config


@pytest.fixture
def txs() -> TpccTransactions:
    dbms = SimulatedDBMS(
        tiny_config(CachePolicy.FACE_GSC, disk_capacity_pages=8192, cache_pages=64)
    )
    database = load_tpcc(dbms, TINY, seed=5)
    rnd = TpccRandom(seed=11, customers_per_district=TINY.customers_per_district,
                     items=TINY.items)
    return TpccTransactions(database, rnd)


def district_row(txs, w=1, d=1):
    return txs.dbms.fetch_row("district", txs.database.district_rid(w, d))


class TestNewOrder:
    def test_increments_next_o_id_and_creates_rows(self, txs):
        before = {d: district_row(txs, 1, d)[10] for d in (1, 2)}
        orders_before = txs.dbms.tables["orders"].info.row_count
        result = txs.new_order()
        after = {d: district_row(txs, 1, d)[10] for d in (1, 2)}
        incremented = [d for d in (1, 2) if after[d] == before[d] + 1]
        if result.committed:
            assert len(incremented) == 1
            assert txs.dbms.tables["orders"].info.row_count == orders_before + 1
        else:
            assert len(incremented) == 0

    def test_stock_decremented_or_replenished(self, txs):
        # Run several orders; stock rows must change and stay in [10, 200].
        for _ in range(10):
            txs.new_order()
        quantities = [
            txs.dbms.fetch_row("stock", txs.dbms.index_lookup("stock_pk", (1, i)))[2]
            for i in range(1, TINY.items + 1)
        ]
        assert all(q >= 10 for q in quantities)

    def test_order_registered_in_indexes_and_queue(self, txs):
        queues_before = {
            key: len(q) for key, q in txs.database.undelivered.items()
        }
        result = txs.new_order()
        if not result.committed:
            return
        grown = [
            key
            for key, q in txs.database.undelivered.items()
            if len(q) > queues_before[key]
        ]
        assert len(grown) == 1
        (w, d) = grown[0]
        o_id = txs.database.undelivered[(w, d)][-1]
        assert txs.dbms.index_lookup("order_pk", (w, d, o_id)) is not None
        assert txs.dbms.index_lookup("new_order_pk", (w, d, o_id)) is not None

    def test_rollbacks_happen_and_leave_no_orders(self, txs):
        committed = aborted = 0
        for _ in range(300):
            if txs.new_order().committed:
                committed += 1
            else:
                aborted += 1
        assert aborted >= 1  # ~1% of 300
        assert committed > 250
        assert txs.dbms.aborted == aborted


class TestPayment:
    def test_updates_ytd_chain_and_history(self, txs):
        w_before = txs.dbms.fetch_row("warehouse", txs.database.warehouse_rid(1))[8]
        hist_before = txs.dbms.tables["history"].info.row_count
        result = txs.payment()
        assert result.committed
        w_after = txs.dbms.fetch_row("warehouse", txs.database.warehouse_rid(1))[8]
        assert w_after > w_before
        assert txs.dbms.tables["history"].info.row_count == hist_before + 1

    def test_customer_balance_decreases(self, txs):
        balances_before = [
            txs.dbms.fetch_row("customer", txs.database.customer_rid(1, d, c))[16]
            for d in (1, 2)
            for c in range(1, TINY.customers_per_district + 1)
        ]
        for _ in range(10):
            txs.payment()
        balances_after = [
            txs.dbms.fetch_row("customer", txs.database.customer_rid(1, d, c))[16]
            for d in (1, 2)
            for c in range(1, TINY.customers_per_district + 1)
        ]
        assert sum(balances_after) < sum(balances_before)


class TestOrderStatus:
    def test_read_only(self, txs):
        import copy

        row_counts = {t: h.info.row_count for t, h in txs.dbms.tables.items()}
        result = txs.order_status()
        assert result.committed
        assert {t: h.info.row_count for t, h in txs.dbms.tables.items()} == row_counts


class TestDelivery:
    def test_consumes_oldest_new_orders(self, txs):
        before = {key: list(q) for key, q in txs.database.undelivered.items()}
        result = txs.delivery()
        assert result.committed
        for key, old in before.items():
            queue = txs.database.undelivered[key]
            if old:
                assert len(queue) == len(old) - 1
                assert list(queue) == old[1:]
                # NEW-ORDER row gone from the index:
                w, d = key
                assert txs.dbms.index_lookup("new_order_pk", (w, d, old[0])) is None

    def test_sets_carrier_and_delivery_dates(self, txs):
        (w, d) = (1, 1)
        o_id = txs.database.undelivered[(w, d)][0]
        txs.delivery()
        rid = txs.dbms.index_lookup("order_pk", (w, d, o_id))
        order = txs.dbms.fetch_row("orders", rid)
        assert order[5] >= 1  # carrier assigned
        heap = txs.dbms.tables["order_line"]
        line = txs.dbms.fetch_row("order_line", heap.rid_for_rownum(order[8]))
        assert line[6] == 1  # delivery date set

    def test_customer_balance_credited(self, txs):
        (w, d) = (1, 1)
        o_id = txs.database.undelivered[(w, d)][0]
        rid = txs.dbms.index_lookup("order_pk", (w, d, o_id))
        c_id = txs.dbms.fetch_row("orders", rid)[3]
        before = txs.dbms.fetch_row(
            "customer", txs.database.customer_rid(w, d, c_id)
        )[16]
        txs.delivery()
        after = txs.dbms.fetch_row(
            "customer", txs.database.customer_rid(w, d, c_id)
        )[16]
        assert after >= before

    def test_empty_queues_commit_harmlessly(self, txs):
        for queue in txs.database.undelivered.values():
            while queue:
                txs.delivery()
        assert txs.delivery().committed


class TestStockLevel:
    def test_read_only_and_commits(self, txs):
        row_counts = {t: h.info.row_count for t, h in txs.dbms.tables.items()}
        assert txs.stock_level().committed
        assert {t: h.info.row_count for t, h in txs.dbms.tables.items()} == row_counts

    def test_touches_stock_pages(self, txs):
        accesses_before = txs.dbms.buffer.stats.accesses
        txs.stock_level()
        assert txs.dbms.buffer.stats.accesses > accesses_before + 10
