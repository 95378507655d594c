"""TPC-C database population (specification clause 4.3, scaled).

Builds the nine tables, their hash indexes, and the initial rows:

* one warehouse row per warehouse, 10 districts each;
* ``customers_per_district`` customers with syllable last names, one
  initial HISTORY row each;
* the full ITEM catalogue and one STOCK row per (warehouse, item);
* ``orders_per_district`` initial orders per district with 5-15 order
  lines each; the most recent 30 % are undelivered (NEW-ORDER rows).

Everything is written through the DBMS bulk-load path (untimed — initial
population is not part of any measurement, Section 5.2).  The loader
returns a :class:`TpccDatabase` handle with the index names, deterministic
rid helpers, and the per-district undelivered-order queues the Delivery
transaction consumes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.dbms import SimulatedDBMS
from repro.db.heap import Rid
from repro.tpcc import schema as S
from repro.tpcc.random_gen import lastname_for_index
from repro.tpcc.scale import ScaleProfile

#: Target hash-index fan-out: entries per bucket page.  Matches the leaf
#: density of a 4 KB B+-tree page with ~10-byte keys (the PostgreSQL
#: indexes the paper's database carried), so index pages occupy the same
#: (small, hot) share of the database and of the buffer pool as real index
#: leaves do.
_ENTRIES_PER_BUCKET = 300


def _index_pages(expected_entries: int) -> int:
    return max(1, expected_entries // _ENTRIES_PER_BUCKET)


@dataclass
class TpccDatabase:
    """Handle to a loaded TPC-C database and its workload-side state."""

    dbms: SimulatedDBMS
    scale: ScaleProfile
    #: Per-(w_id, d_id): FIFO of undelivered order ids (oldest first).
    undelivered: dict[tuple[int, int], deque] = field(default_factory=dict)
    #: Span of distinct last-name indexes in use.
    name_span: int = 1

    # -- deterministic rid helpers (dense load order) --------------------------

    def warehouse_rid(self, w_id: int) -> Rid:
        return self.dbms.tables["warehouse"].rid_for_rownum(w_id - 1)

    def district_rid(self, w_id: int, d_id: int) -> Rid:
        rownum = (w_id - 1) * self.scale.districts_per_warehouse + (d_id - 1)
        return self.dbms.tables["district"].rid_for_rownum(rownum)

    def customer_rid(self, w_id: int, d_id: int, c_id: int) -> Rid:
        rownum = (
            (w_id - 1) * self.scale.districts_per_warehouse + (d_id - 1)
        ) * self.scale.customers_per_district + (c_id - 1)
        return self.dbms.tables["customer"].rid_for_rownum(rownum)

    def item_rid(self, i_id: int) -> Rid:
        return self.dbms.tables["item"].rid_for_rownum(i_id - 1)

    def stock_rid(self, w_id: int, i_id: int) -> Rid:
        rownum = (w_id - 1) * self.scale.items + (i_id - 1)
        return self.dbms.tables["stock"].rid_for_rownum(rownum)


def estimate_db_pages(scale: ScaleProfile) -> int:
    """Database footprint (pages) a load of ``scale`` will allocate.

    Runs the schema-creation logic against a throwaway catalog, so the
    estimate is exact and configs can be sized (cache/buffer fractions)
    before building the real system.
    """
    from repro.db.catalog import Catalog

    class _CatalogOnly:
        def __init__(self) -> None:
            self.catalog = Catalog()

        def create_table(self, schema, expected_rows, growth_factor=1.0):
            return self.catalog.create_table(schema, expected_rows, growth_factor)

        def create_index(self, name, table, n_pages):
            return self.catalog.create_index(name, table, n_pages)

    probe = _CatalogOnly()
    _create_schema(probe, scale)
    return probe.catalog.total_pages


def load_tpcc(dbms: SimulatedDBMS, scale: ScaleProfile, seed: int = 42) -> TpccDatabase:
    """Create schema + indexes and populate the initial database."""
    rng = random.Random(seed)
    _create_schema(dbms, scale)
    database = TpccDatabase(dbms=dbms, scale=scale)
    database.name_span = min(1000, max(1, scale.customers_per_district // 3))

    dbms.begin_load()
    _load_warehouses(dbms, scale, rng)
    _load_districts(dbms, scale, rng)
    _load_customers(dbms, scale, rng, database)
    _load_items(dbms, scale, rng)
    _load_stock(dbms, scale, rng)
    _load_orders(dbms, scale, rng, database)
    dbms.finish_load()
    return database


def _create_schema(dbms: SimulatedDBMS, scale: ScaleProfile) -> None:
    growth = scale.growth_factor
    dbms.create_table(S.WAREHOUSE, scale.warehouses)
    dbms.create_table(S.DISTRICT, scale.districts)
    dbms.create_table(S.CUSTOMER, scale.customers)
    dbms.create_table(S.HISTORY, scale.customers, growth_factor=growth)
    dbms.create_table(S.NEW_ORDER, scale.initial_orders, growth_factor=growth)
    dbms.create_table(S.ORDER, scale.initial_orders, growth_factor=growth)
    dbms.create_table(S.ORDER_LINE, scale.initial_order_lines, growth_factor=growth)
    dbms.create_table(S.ITEM, scale.items)
    dbms.create_table(S.STOCK, scale.stock_rows)

    dbms.create_index("warehouse_pk", "warehouse", _index_pages(scale.warehouses))
    dbms.create_index("district_pk", "district", _index_pages(scale.districts))
    dbms.create_index("customer_pk", "customer", _index_pages(scale.customers))
    dbms.create_index("customer_last", "customer", _index_pages(scale.customers // 3))
    dbms.create_index("item_pk", "item", _index_pages(scale.items))
    dbms.create_index("stock_pk", "stock", _index_pages(scale.stock_rows))
    grown_orders = int(scale.initial_orders * scale.growth_factor)
    dbms.create_index("order_pk", "orders", _index_pages(grown_orders))
    dbms.create_index("new_order_pk", "new_order", _index_pages(grown_orders))
    dbms.create_index("customer_last_order", "orders", _index_pages(scale.customers))


def _load_warehouses(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    for w_id in range(1, scale.warehouses + 1):
        row = (
            w_id, f"WH{w_id:04d}", "street-1", "street-2", "city", "ST",
            "123456789", rng.uniform(0.0, 0.2), 300_000.0,
        )
        rid = dbms.load_insert("warehouse", row)
        dbms.load_index_insert("warehouse_pk", (w_id,), rid)


def _load_districts(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    for w_id in range(1, scale.warehouses + 1):
        for d_id in range(1, scale.districts_per_warehouse + 1):
            row = (
                d_id, w_id, f"D{d_id:02d}", "street-1", "street-2", "city",
                "ST", "123456789", rng.uniform(0.0, 0.2), 30_000.0,
                scale.orders_per_district + 1,
            )
            rid = dbms.load_insert("district", row)
            dbms.load_index_insert("district_pk", (w_id, d_id), rid)


def _load_customers(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    rng: random.Random,
    database: TpccDatabase,
) -> None:
    span = database.name_span
    for w_id in range(1, scale.warehouses + 1):
        for d_id in range(1, scale.districts_per_warehouse + 1):
            by_name: dict[int, list[Rid]] = {}
            for c_id in range(1, scale.customers_per_district + 1):
                name_idx = (c_id - 1) % span
                credit = "BC" if rng.random() < 0.1 else "GC"
                row = (
                    c_id, d_id, w_id, f"first{c_id}", "OE",
                    lastname_for_index(name_idx), "street-1", "street-2",
                    "city", "ST", "123456789", "0123456789012345", 0,
                    credit, 50_000.0, rng.uniform(0.0, 0.5), -10.0, 10.0,
                    1, 0, "customer data",
                )
                rid = dbms.load_insert("customer", row)
                dbms.load_index_insert("customer_pk", (w_id, d_id, c_id), rid)
                by_name.setdefault(name_idx, []).append(rid)
                history = (
                    c_id, d_id, w_id, d_id, w_id, 0, 10.0, "initial history",
                )
                dbms.load_insert("history", history)
            # Clause 2.5.2.2: by-name selection returns the middle match.
            for name_idx, rids in by_name.items():
                middle = rids[len(rids) // 2]
                dbms.load_index_insert(
                    "customer_last", (w_id, d_id, name_idx), middle
                )


def _load_items(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    for i_id in range(1, scale.items + 1):
        row = (
            i_id, rng.randint(1, 10_000), f"item-{i_id}",
            rng.uniform(1.0, 100.0), "item data",
        )
        rid = dbms.load_insert("item", row)
        dbms.load_index_insert("item_pk", (i_id,), rid)


def _load_stock(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    dists = tuple(f"dist-info-{i:02d}" for i in range(1, 11))
    for w_id in range(1, scale.warehouses + 1):
        for i_id in range(1, scale.items + 1):
            row = (i_id, w_id, rng.randint(10, 100), *dists, 0.0, 0, 0, "stock data")
            rid = dbms.load_insert("stock", row)
            dbms.load_index_insert("stock_pk", (w_id, i_id), rid)


def _load_orders(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    rng: random.Random,
    database: TpccDatabase,
) -> None:
    new_order_start = scale.orders_per_district - int(
        scale.orders_per_district * scale.new_order_fraction
    )
    for w_id in range(1, scale.warehouses + 1):
        for d_id in range(1, scale.districts_per_warehouse + 1):
            pending: deque = deque()
            customers = list(range(1, scale.customers_per_district + 1))
            rng.shuffle(customers)
            for o_id in range(1, scale.orders_per_district + 1):
                c_id = customers[(o_id - 1) % len(customers)]
                ol_cnt = rng.randint(5, 15)
                is_new = o_id > new_order_start
                carrier = 0 if is_new else rng.randint(1, 10)
                ol_first = dbms.tables["order_line"].info.row_count
                order_row = (o_id, d_id, w_id, c_id, 0, carrier, ol_cnt, 1, ol_first)
                order_rid = dbms.load_insert("orders", order_row)
                dbms.load_index_insert("order_pk", (w_id, d_id, o_id), order_rid)
                dbms.load_index_insert(
                    "customer_last_order", (w_id, d_id, c_id), order_rid
                )
                for number in range(1, ol_cnt + 1):
                    delivery_d = 0 if is_new else 1
                    line = (
                        o_id, d_id, w_id, number, rng.randint(1, scale.items),
                        w_id, delivery_d, 5, rng.uniform(1.0, 100.0) if is_new else 0.0,
                        "dist-info",
                    )
                    dbms.load_insert("order_line", line)
                if is_new:
                    no_rid = dbms.load_insert("new_order", (o_id, d_id, w_id))
                    dbms.load_index_insert("new_order_pk", (w_id, d_id, o_id), no_rid)
                    pending.append(o_id)
            database.undelivered[(w_id, d_id)] = pending
