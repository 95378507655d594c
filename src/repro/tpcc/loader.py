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
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.db.heap import Rid
from repro.tpcc import schema as S
from repro.tpcc.random_gen import FastRandom, lastname_for_index
from repro.tpcc.scale import ScaleProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dbms import SimulatedDBMS

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


def estimate_db_pages(scale: ScaleProfile) -> int:
    """Database footprint (pages) a load of ``scale`` will allocate.

    Runs the schema-creation logic against a throwaway catalog, so the
    estimate is exact and configs can be sized (cache/buffer fractions)
    before building the real system.
    """
    from repro.db.catalog import Catalog

    probe = Catalog()  # has the create_table / create_index the schema calls
    _create_schema(probe, scale)
    return probe.total_pages


def load_tpcc(dbms: SimulatedDBMS, scale: ScaleProfile, seed: int = 42) -> TpccDatabase:
    """Create schema + indexes and populate the initial database."""
    rng = FastRandom(seed)
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


def load_keyed(dbms: SimulatedDBMS, table: str, index: str, rows: list[tuple], key) -> list[Rid]:
    """Bulk-load ``rows``, index each under ``key(row)``; returns their rids."""
    rids = dbms.tables[table].rids(dbms.load_rows(table, rows), len(rows))
    dbms.load_index(index, zip(map(key, rows), rids))
    return rids


def _load_warehouses(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    rows = [
        (
            w_id, f"WH{w_id:04d}", "street-1", "street-2", "city", "ST",
            "123456789", rng.uniform(0.0, 0.2), 300_000.0,
        )
        for w_id in range(1, scale.warehouses + 1)
    ]
    load_keyed(dbms, "warehouse", "warehouse_pk", rows, itemgetter(slice(1)))


def _load_districts(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    rows = [
        (
            d_id, w_id, f"D{d_id:02d}", "street-1", "street-2", "city",
            "ST", "123456789", rng.uniform(0.0, 0.2), 30_000.0,
            scale.orders_per_district + 1,
        )
        for w_id in range(1, scale.warehouses + 1)
        for d_id in range(1, scale.districts_per_warehouse + 1)
    ]
    load_keyed(dbms, "district", "district_pk", rows, itemgetter(1, 0))


def _load_customers(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    rng: random.Random,
    database: TpccDatabase,
) -> None:
    span = database.name_span
    rows, history = [], []
    by_name: dict[tuple, list[int]] = {}  # (w_id, d_id, name_idx) -> row offsets
    for w_id in range(1, scale.warehouses + 1):
        for d_id in range(1, scale.districts_per_warehouse + 1):
            for c_id in range(1, scale.customers_per_district + 1):
                name_idx = (c_id - 1) % span
                credit = "BC" if rng.random() < 0.1 else "GC"
                by_name.setdefault((w_id, d_id, name_idx), []).append(len(rows))
                rows.append((
                    c_id, d_id, w_id, f"first{c_id}", "OE",
                    lastname_for_index(name_idx), "street-1", "street-2",
                    "city", "ST", "123456789", "0123456789012345", 0,
                    credit, 50_000.0, rng.uniform(0.0, 0.5), -10.0, 10.0,
                    1, 0, "customer data",
                ))
                history.append((c_id, d_id, w_id, d_id, w_id, 0, 10.0, "initial history"))
    rids = load_keyed(dbms, "customer", "customer_pk", rows, itemgetter(2, 1, 0))
    dbms.load_rows("history", history)
    # Clause 2.5.2.2: by-name selection returns the middle match.
    dbms.load_index(
        "customer_last",
        ((key, rids[offsets[len(offsets) // 2]]) for key, offsets in by_name.items()),
    )


def _load_items(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    rows = [
        (i_id, rng.randint(1, 10_000), f"item-{i_id}", rng.uniform(1.0, 100.0), "item data")
        for i_id in range(1, scale.items + 1)
    ]
    load_keyed(dbms, "item", "item_pk", rows, itemgetter(slice(1)))


def _load_stock(dbms: SimulatedDBMS, scale: ScaleProfile, rng: random.Random) -> None:
    dists = tuple(f"dist-info-{i:02d}" for i in range(1, 11))
    rows = [
        (i_id, w_id, rng.randint(10, 100), *dists, 0.0, 0, 0, "stock data")
        for w_id in range(1, scale.warehouses + 1)
        for i_id in range(1, scale.items + 1)
    ]
    load_keyed(dbms, "stock", "stock_pk", rows, itemgetter(1, 0))


def _load_orders(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    rng: random.Random,
    database: TpccDatabase,
) -> None:
    new_order_start = scale.orders_per_district - int(
        scale.orders_per_district * scale.new_order_fraction
    )
    ol_base = dbms.tables["order_line"].info.row_count
    orders, lines, new_orders = [], [], []
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
                ol_first = ol_base + len(lines)
                orders.append((o_id, d_id, w_id, c_id, 0, carrier, ol_cnt, 1, ol_first))
                for number in range(1, ol_cnt + 1):
                    delivery_d = 0 if is_new else 1
                    lines.append((
                        o_id, d_id, w_id, number, rng.randint(1, scale.items),
                        w_id, delivery_d, 5, rng.uniform(1.0, 100.0) if is_new else 0.0,
                        "dist-info",
                    ))
                if is_new:
                    new_orders.append((o_id, d_id, w_id))
                    pending.append(o_id)
            database.undelivered[(w_id, d_id)] = pending
    # Keys (w_id, d_id, o_id) and, for a customer's last order, (w_id, d_id, c_id).
    order_rids = load_keyed(dbms, "orders", "order_pk", orders, itemgetter(2, 1, 0))
    dbms.load_index("customer_last_order", zip(map(itemgetter(2, 1, 3), orders), order_rids))
    dbms.load_rows("order_line", lines)
    load_keyed(dbms, "new_order", "new_order_pk", new_orders, itemgetter(2, 1, 0))
