"""``tpch-scan`` registry entry: TPC-H-style sequential-scan analytics.

The workload the paper's §3.3 scan-resistance argument needs but its
TPC-C-only setup could not produce.  Tables follow the TPC-H
specification's cardinality *ratios* (region 5, nation 25, and
supplier : customer : part : orders : lineitem = 10k : 150k : 200k :
1.5M : 6M per scale factor), scaled off the experiment's
:class:`~repro.tpcc.scale.ScaleProfile` so TINY loads in well under a
second while keeping the fact table several times larger than the flash
cache.

One ``scan`` transaction models a join pipeline (TPC-H Q3/Q10 shape):

* build side — full sequential scans of the ``customer`` and ``part``
  dimension tables (together larger than the DRAM buffer, so their pages
  recur through the flash layer every transaction);
* probe side — a Zipf-skewed chunk of ``lineitem`` (chunk 0 is the
  hottest, the "most recent partition"), read **twice**: the second pass
  is the re-visit a spilling hash join or sort pays.

The two-pass fact scan is what separates the §3.3 policies.  Flash
admission happens on DRAM eviction, so each pass-1 fact page enters the
flash cache once and is re-referenced by pass 2 shortly after.  mvFIFO
keeps fresh admissions until the queue cycles — pass-2 re-reads hit, and
Group Second Chance's reference bits additionally keep the every-
transaction dimension pages resident across recycles.  LRU-2 ranks
once-referenced pages below *all* twice-referenced pages, so the fresh
pass-1 admissions evict one another before their pass-2 re-reference
arrives — the fact working set never establishes itself, and steady-state
hit ratio falls below GSC's (gated in ``benchmarks/BENCH_scan.json``).

Knobs: ``scan_pages`` (chunk depth), ``scan_skew`` (Zipf exponent over
chunk starts — the selectivity profile), and ``probe_fraction`` /
``update_fraction`` mixing in OLTP-style point reads and read-modify-
writes (the ``htap`` preset) — kinds ``probe`` and ``update``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.db.schema import TableSchema, float_col, int_col, str_col
from repro.errors import WorkloadError
from repro.tpcc.loader import load_keyed
from repro.tpcc.random_gen import FastRandom
from repro.tpcc.scale import ScaleProfile
from repro.workload.registry import (  # noqa: F401 - the knobs are re-exported
    TPCH_KNOBS,
    TPCH_PRESETS,
    TxResult,
    WorkloadStats,
)
from repro.workload.synthetic import ZipfGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dbms import SimulatedDBMS

#: Driver kind alphabet (headline kind first — see the registry docs).
TPCH_TX_KINDS = ("scan", "probe", "update")

#: Target hash-index fan-out, matching the TPC-C loader's page density.
_ENTRIES_PER_BUCKET = 300

# -- schema (spec tables, widths sized for faithful page-count ratios) ---------

REGION = TableSchema(
    name="region",
    columns=(int_col("r_regionkey"), str_col("r_name"), str_col("r_comment", 48)),
    primary_key=("r_regionkey",),
)
NATION = TableSchema(
    name="nation",
    columns=(
        int_col("n_nationkey"),
        str_col("n_name"),
        int_col("n_regionkey"),
        str_col("n_comment", 48),
    ),
    primary_key=("n_nationkey",),
)
SUPPLIER = TableSchema(
    name="supplier",
    columns=(
        int_col("s_suppkey"),
        str_col("s_name"),
        str_col("s_address", 32),
        int_col("s_nationkey"),
        str_col("s_phone"),
        float_col("s_acctbal"),
        str_col("s_comment", 48),
    ),
    primary_key=("s_suppkey",),
)
CUSTOMER = TableSchema(
    name="customer",
    columns=(
        int_col("c_custkey"),
        str_col("c_name"),
        str_col("c_address", 32),
        int_col("c_nationkey"),
        str_col("c_phone"),
        float_col("c_acctbal"),
        str_col("c_mktsegment"),
        str_col("c_comment", 96),
    ),
    primary_key=("c_custkey",),
)
PART = TableSchema(
    name="part",
    columns=(
        int_col("p_partkey"),
        str_col("p_name", 48),
        str_col("p_mfgr"),
        str_col("p_brand"),
        str_col("p_type"),
        int_col("p_size"),
        str_col("p_container"),
        float_col("p_retailprice"),
        str_col("p_comment"),
    ),
    primary_key=("p_partkey",),
)
ORDERS = TableSchema(
    name="tpch_orders",
    columns=(
        int_col("o_orderkey"),
        int_col("o_custkey"),
        int_col("o_orderstatus"),
        float_col("o_totalprice"),
        int_col("o_orderdate"),
        int_col("o_shippriority"),
        int_col("o_linecount"),
    ),
    primary_key=("o_orderkey",),
)
LINEITEM = TableSchema(
    name="lineitem",
    columns=(
        int_col("l_orderkey"),
        int_col("l_linenumber"),
        int_col("l_partkey"),
        int_col("l_suppkey"),
        float_col("l_quantity"),
        float_col("l_extendedprice"),
        float_col("l_discount"),
        int_col("l_shipdate"),
        int_col("l_returnflag"),
    ),
    primary_key=("l_orderkey", "l_linenumber"),
)

#: TPC-H per-scale-factor ratios, expressed per cardinality *unit*:
#: 10k : 150k : 200k : 1.5M per SF == 50 : 750 : 1000 : 7500 per unit,
#: with ~4 lineitems per order (TPC-H: 1-7 uniform).
_SUPPLIERS_PER_UNIT = 50
_CUSTOMERS_PER_UNIT = 750
_PARTS_PER_UNIT = 1_000
_ORDERS_PER_UNIT = 7_500
_LINES_PER_ORDER = 4


@dataclass(frozen=True)
class TpchCardinalities:
    """Row counts of one TPC-H build (all derived from one unit count)."""

    units: int

    @property
    def suppliers(self) -> int:
        return _SUPPLIERS_PER_UNIT * self.units

    @property
    def customers(self) -> int:
        return _CUSTOMERS_PER_UNIT * self.units

    @property
    def parts(self) -> int:
        return _PARTS_PER_UNIT * self.units

    @property
    def orders(self) -> int:
        return _ORDERS_PER_UNIT * self.units

    @property
    def lineitems(self) -> int:
        return self.orders * _LINES_PER_ORDER


def tpch_cardinalities(scale: ScaleProfile) -> TpchCardinalities:
    """Map a TPC-C scale profile onto TPC-H cardinality units.

    One unit per ~600 TPC-C customers keeps the TINY build under a
    second of load time while the BENCH build grows 20x, mirroring how
    the TPC-C tables scale between the two profiles.
    """
    return TpchCardinalities(units=max(1, scale.customers // 600))


def _index_pages(expected_entries: int) -> int:
    return max(1, expected_entries // _ENTRIES_PER_BUCKET)


@dataclass
class TpchDatabase:
    """Handle to a loaded TPC-H database (the tpch-scan loader's result)."""

    dbms: SimulatedDBMS
    scale: ScaleProfile
    cards: TpchCardinalities


def create_tpch_schema(dbms, scale: ScaleProfile, **_ignored) -> None:
    """Create tables + indexes in fixed order (catalog-probe friendly)."""
    cards = tpch_cardinalities(scale)
    dbms.create_table(REGION, 5)
    dbms.create_table(NATION, 25)
    dbms.create_table(SUPPLIER, cards.suppliers)
    dbms.create_table(CUSTOMER, cards.customers)
    dbms.create_table(PART, cards.parts)
    dbms.create_table(ORDERS, cards.orders)
    dbms.create_table(LINEITEM, cards.lineitems)
    dbms.create_index("tpch_customer_pk", "customer", _index_pages(cards.customers))
    dbms.create_index("tpch_part_pk", "part", _index_pages(cards.parts))
    dbms.create_index("tpch_orders_pk", "tpch_orders", _index_pages(cards.orders))


def load_tpch(
    dbms: SimulatedDBMS, scale: ScaleProfile, seed: int, **_ignored
) -> TpchDatabase:
    """Create schema and bulk-load the initial rows (untimed)."""
    cards = tpch_cardinalities(scale)
    rng = FastRandom(seed)
    create_tpch_schema(dbms, scale)
    dbms.begin_load()
    dbms.load_rows("region", [(r_id, f"region-{r_id}", "region comment") for r_id in range(5)])
    dbms.load_rows(
        "nation",
        [(n_id, f"nation-{n_id}", n_id % 5, "nation comment") for n_id in range(25)],
    )
    dbms.load_rows("supplier", [
        (s_id, f"supplier-{s_id}", "address", rng.randrange(25),
         "phone", rng.uniform(-999.0, 9999.0), "supplier comment")
        for s_id in range(1, cards.suppliers + 1)
    ])
    load_keyed(dbms, "customer", "tpch_customer_pk", [
        (c_id, f"customer-{c_id}", "address", rng.randrange(25),
         "phone", rng.uniform(-999.0, 9999.0), "BUILDING", "customer comment")
        for c_id in range(1, cards.customers + 1)
    ], itemgetter(slice(1)))
    load_keyed(dbms, "part", "tpch_part_pk", [
        (p_id, f"part-{p_id}", "mfgr", "brand", "type",
         rng.randint(1, 50), "container", rng.uniform(900.0, 2000.0), "comment")
        for p_id in range(1, cards.parts + 1)
    ], itemgetter(slice(1)))
    orders: list[tuple] = []
    lines: list[tuple] = []
    for o_id in range(1, cards.orders + 1):
        orders.append((
            o_id, rng.randint(1, cards.customers), 0,
            rng.uniform(100.0, 500_000.0), rng.randint(0, 2_525),
            0, _LINES_PER_ORDER,
        ))
        lines.extend(
            (o_id, line, rng.randint(1, cards.parts),
             rng.randint(1, cards.suppliers), float(rng.randint(1, 50)),
             rng.uniform(1.0, 100_000.0), rng.uniform(0.0, 0.1),
             rng.randint(0, 2_525), 0)
            for line in range(1, _LINES_PER_ORDER + 1)
        )
    load_keyed(dbms, "tpch_orders", "tpch_orders_pk", orders, itemgetter(slice(1)))
    dbms.load_rows("lineitem", lines)
    dbms.finish_load()
    return TpchDatabase(dbms=dbms, scale=scale, cards=cards)


def rebuild_tpch_handle(dbms: SimulatedDBMS, scale: ScaleProfile, state) -> TpchDatabase:
    """Warm-fork hook: rebuild a handle onto an adopted DBMS (the scan
    workload keeps no mutable workload-side state)."""
    return TpchDatabase(dbms=dbms, scale=scale, cards=tpch_cardinalities(scale))


class TpchScanDriver:
    """Drives one simulated DBMS with the scan / probe / update mix."""

    def __init__(
        self,
        database: TpchDatabase,
        seed: int = 7,
        *,
        scan_pages: int = 96,
        scan_skew: float = 0.8,
        probe_fraction: float = 0.0,
        update_fraction: float = 0.0,
    ) -> None:
        if scan_pages < 1:
            raise WorkloadError("scan_pages must be >= 1")
        if scan_skew < 0.0:
            raise WorkloadError("scan_skew must be non-negative")
        if not 0.0 <= probe_fraction <= 1.0 or not 0.0 <= update_fraction <= 1.0:
            raise WorkloadError("mix fractions must be within [0, 1]")
        if probe_fraction + update_fraction > 1.0:
            raise WorkloadError("probe_fraction + update_fraction must be <= 1")
        self.database = database
        self.dbms = database.dbms
        self.probe_fraction = probe_fraction
        self.update_fraction = update_fraction
        fact = self.dbms.tables["lineitem"].info
        self.scan_pages = min(scan_pages, fact.n_pages)
        self._fact_first = fact.first_page
        self._fact_end = fact.end_page
        n_chunks = -(-fact.n_pages // self.scan_pages)
        # Chunk 0 (the table head — the "most recent partition") is the
        # hottest; skew over chunk starts is the workload's selectivity
        # profile.
        self._chunk_zipf = ZipfGenerator(n_chunks, scan_skew, seed)
        self._rng = FastRandom(seed + 1)
        cards = database.cards
        self._cust_zipf = ZipfGenerator(cards.customers, 0.99, seed + 2)
        self._cust_keys = list(range(1, cards.customers + 1))
        self._rng.shuffle(self._cust_keys)
        self.stats = WorkloadStats(headline_kind=TPCH_TX_KINDS[0])

    # -- transaction bodies ----------------------------------------------------

    def _scan(self) -> None:
        """One join pipeline: dimension builds + a two-pass fact chunk."""
        dbms = self.dbms
        for table in ("customer", "part"):
            info = dbms.tables[table].info
            for page_id in range(info.first_page, info.end_page):
                dbms.read_page(page_id)
        first = self._fact_first + self._chunk_zipf.sample() * self.scan_pages
        end = min(first + self.scan_pages, self._fact_end)
        for _pass in range(2):  # pass 2 = the spill/sort re-visit
            for page_id in range(first, end):
                dbms.read_page(page_id)

    def _probe(self) -> None:
        """OLTP-style point reads: customer, part and orders lookups."""
        dbms = self.dbms
        cards = self.database.cards
        for _ in range(2):
            key = self._cust_keys[self._cust_zipf.sample()]
            rid = dbms.index_lookup("tpch_customer_pk", (key,))
            dbms.fetch_row("customer", rid)
        part_key = self._rng.randint(1, cards.parts)
        rid = dbms.index_lookup("tpch_part_pk", (part_key,))
        dbms.fetch_row("part", rid)
        order_key = self._rng.randint(1, cards.orders)
        rid = dbms.index_lookup("tpch_orders_pk", (order_key,))
        dbms.fetch_row("tpch_orders", rid)

    def _update(self, tx) -> None:
        """Point read-modify-writes on an order and one of its lines."""
        dbms = self.dbms
        cards = self.database.cards
        order_num = self._rng.randrange(cards.orders)
        rid = dbms.tables["tpch_orders"].rid_for_rownum(order_num)
        row = dbms.fetch_row("tpch_orders", rid)
        dbms.update_row(tx, "tpch_orders", rid, row[:2] + (row[2] + 1,) + row[3:])
        line_num = order_num * _LINES_PER_ORDER + self._rng.randrange(_LINES_PER_ORDER)
        rid = dbms.tables["lineitem"].rid_for_rownum(line_num)
        row = dbms.fetch_row("lineitem", rid)
        dbms.update_row(tx, "lineitem", rid, row[:8] + (row[8] + 1,))

    def _pick_kind(self) -> str:
        roll = self._rng.random()
        if roll < self.probe_fraction:
            return "probe"
        if roll < self.probe_fraction + self.update_fraction:
            return "update"
        return "scan"

    # -- driver protocol -------------------------------------------------------

    def run_one(self, kind: str | None = None) -> TxResult:
        """Execute one transaction (mix-rolled kind unless given)."""
        kind = kind or self._pick_kind()
        dbms = self.dbms
        tx = dbms.begin()
        if kind == "scan":
            self._scan()
        elif kind == "probe":
            self._probe()
        elif kind == "update":
            self._update(tx)
        else:
            raise WorkloadError(f"unknown tpch-scan transaction kind {kind!r}")
        dbms.commit(tx)
        result = TxResult(kind=kind, committed=True)
        self.stats.record(result)
        return result

    def run(self, n_transactions: int, checkpointer=None) -> WorkloadStats:
        """Execute ``n_transactions``; optionally tick a checkpointer."""
        if n_transactions < 0:
            raise WorkloadError("n_transactions must be >= 0")
        for _ in range(n_transactions):
            self.run_one()
            if checkpointer is not None:
                checkpointer()
        return self.stats
