"""TPC-C population: cardinalities, indexes, rid helpers, queues."""

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.errors import ConfigError
from repro.tpcc.loader import estimate_db_pages, load_tpcc
from repro.tpcc.scale import TINY, ScaleProfile
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def loaded():
    dbms = SimulatedDBMS(
        tiny_config(CachePolicy.FACE, disk_capacity_pages=8192, cache_pages=64)
    )
    return load_tpcc(dbms, TINY, seed=5)


def test_scale_profile_derivations():
    assert TINY.districts == 2
    assert TINY.customers == 60
    assert TINY.stock_rows == 200
    assert TINY.initial_orders == 60


def test_scale_profile_validation():
    with pytest.raises(ConfigError):
        ScaleProfile(warehouses=0)
    with pytest.raises(ConfigError):
        ScaleProfile(new_order_fraction=2.0)


def test_all_nine_tables_created(loaded):
    assert set(loaded.dbms.tables) == {
        "warehouse", "district", "customer", "history", "new_order",
        "orders", "order_line", "item", "stock",
    }


def test_row_counts_match_scale(loaded):
    tables = loaded.dbms.tables
    assert tables["warehouse"].info.row_count == 1
    assert tables["district"].info.row_count == 2
    assert tables["customer"].info.row_count == 60
    assert tables["item"].info.row_count == 200
    assert tables["stock"].info.row_count == 200
    assert tables["orders"].info.row_count == 60
    assert tables["new_order"].info.row_count == 18
    assert tables["history"].info.row_count == 60
    # 5..15 lines per order, 60 orders
    assert 5 * 60 <= tables["order_line"].info.row_count <= 15 * 60


def test_rid_helpers_agree_with_indexes(loaded):
    dbms = loaded.dbms
    assert dbms.index_lookup("warehouse_pk", (1,)) == loaded.warehouse_rid(1)
    assert dbms.index_lookup("district_pk", (1, 2)) == loaded.district_rid(1, 2)
    assert dbms.index_lookup("customer_pk", (1, 2, 30)) == loaded.customer_rid(1, 2, 30)


def test_loaded_rows_have_correct_keys(loaded):
    dbms = loaded.dbms
    row = dbms.fetch_row("customer", loaded.customer_rid(1, 2, 7))
    assert (row[2], row[1], row[0]) == (1, 2, 7)
    stock = dbms.fetch_row("stock", dbms.index_lookup("stock_pk", (1, 99)))
    assert (stock[1], stock[0]) == (1, 99)


def test_district_next_o_id_points_past_loaded_orders(loaded):
    row = loaded.dbms.fetch_row("district", loaded.district_rid(1, 1))
    assert row[10] == TINY.orders_per_district + 1


def test_undelivered_queues_match_new_order_rows(loaded):
    total = sum(len(q) for q in loaded.undelivered.values())
    assert total == loaded.dbms.tables["new_order"].info.row_count
    for (w, d), queue in loaded.undelivered.items():
        assert list(queue) == sorted(queue)  # oldest first
        for o_id in queue:
            assert loaded.dbms.index_lookup("new_order_pk", (w, d, o_id)) is not None


def test_order_index_covers_every_order(loaded):
    for o_id in (1, 15, 30):  # TINY loads 30 orders per district
        rid = loaded.dbms.index_lookup("order_pk", (1, 1, o_id))
        assert rid is not None
        order = loaded.dbms.fetch_row("orders", rid)
        assert order[0] == o_id


def test_order_lines_reachable_via_first_rownum(loaded):
    dbms = loaded.dbms
    rid = dbms.index_lookup("order_pk", (1, 1, 5))
    order = dbms.fetch_row("orders", rid)
    ol_cnt, ol_first = order[6], order[8]
    heap = dbms.tables["order_line"]
    for offset in range(ol_cnt):
        line = dbms.fetch_row("order_line", heap.rid_for_rownum(ol_first + offset))
        assert line[0] == 5  # ol_o_id
        assert line[3] == offset + 1  # ol_number


def test_customer_last_index_returns_valid_customer(loaded):
    rid = loaded.dbms.index_lookup("customer_last", (1, 1, 0))
    assert rid is not None
    row = loaded.dbms.fetch_row("customer", rid)
    assert row[5].startswith("BAR")  # lastname index 0


def test_estimate_matches_actual_allocation(loaded):
    assert estimate_db_pages(TINY) == loaded.dbms.db_pages


def test_deterministic_load():
    a = SimulatedDBMS(tiny_config(disk_capacity_pages=8192))
    b = SimulatedDBMS(tiny_config(disk_capacity_pages=8192))
    load_tpcc(a, TINY, seed=5)
    load_tpcc(b, TINY, seed=5)
    for pid in range(a.db_pages):
        ia, ib = a.disk.peek(pid), b.disk.peek(pid)
        if ia is None:
            assert ib is None
        else:
            assert ia.slots == ib.slots
