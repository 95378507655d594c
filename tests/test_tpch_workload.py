"""The ``tpch-scan`` workload: TPC-H-style sequential-scan analytics.

Pins the spec-faithful cardinality ratios, the loader/schema agreement
(the catalog probe sizing configs must match what the loader allocates),
the scan/probe/update transaction bodies, knob validation, determinism in
``(scale, seed)``, and the §3.3 mechanism the workload exists to exercise:
a two-pass fact chunk whose pass-2 re-reads are what scan-resistant flash
policies keep and pure-recency policies evict.
"""

from __future__ import annotations

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.errors import WorkloadError
from repro.tpcc.scale import BENCH, TINY
from repro.workload.tpch import (
    TPCH_KNOBS,
    TPCH_PRESETS,
    TPCH_TX_KINDS,
    TpchScanDriver,
    load_tpch,
    tpch_cardinalities,
)
from tests.conftest import tiny_config


def make_database(**config_overrides):
    dbms = SimulatedDBMS(tiny_config(CachePolicy.NONE, **config_overrides))
    return load_tpch(dbms, TINY, seed=11)


class TestCardinalities:
    def test_spec_ratios(self):
        cards = tpch_cardinalities(TINY)
        # TPC-H per-SF ratios: supplier:customer:part:orders =
        # 10k : 150k : 200k : 1.5M, i.e. 50 : 750 : 1000 : 7500 per unit.
        assert cards.customers == cards.suppliers * 15
        assert cards.parts == cards.suppliers * 20
        assert cards.orders == cards.suppliers * 150
        assert cards.lineitems == cards.orders * 4

    def test_scales_with_profile(self):
        assert tpch_cardinalities(BENCH).units > tpch_cardinalities(TINY).units


class TestLoader:
    def test_loader_matches_catalog_probe(self):
        # estimate_workload_pages sizes configs from a rows-free schema
        # probe; the real loader must land on exactly those page counts.
        from repro.workload.registry import estimate_workload_pages, workload_spec

        database = make_database()
        loaded_pages = database.dbms.catalog.total_pages
        assert loaded_pages == estimate_workload_pages(
            workload_spec("tpch-scan"), TINY
        )

    def test_fact_table_dwarfs_the_dimensions(self):
        database = make_database()
        tables = database.dbms.tables
        fact = tables["lineitem"].info.n_pages
        assert fact > 3 * (
            tables["customer"].info.n_pages + tables["part"].info.n_pages
        )

    def test_loaded_rows_are_fetchable(self):
        database = make_database()
        dbms = database.dbms
        rid = dbms.index_lookup("tpch_customer_pk", (1,))
        assert dbms.fetch_row("customer", rid)[0] == 1
        rid = dbms.index_lookup("tpch_orders_pk", (database.cards.orders,))
        assert dbms.fetch_row("tpch_orders", rid)[0] == database.cards.orders


class TestDriver:
    def test_kind_alphabet(self):
        assert TPCH_TX_KINDS == ("scan", "probe", "update")
        assert set(TPCH_PRESETS["htap"]) <= set(TPCH_KNOBS)

    def test_pure_scan_default_runs_only_scans(self):
        driver = TpchScanDriver(make_database(), seed=5)
        stats = driver.run(10)
        assert stats.by_kind == {"scan": 10}
        assert stats.committed == 10
        assert stats.neworder_commits == 10  # scan is the headline kind

    def test_htap_preset_mixes_kinds(self):
        driver = TpchScanDriver(make_database(), seed=5, **TPCH_PRESETS["htap"])
        stats = driver.run(120)
        assert set(stats.by_kind) == {"scan", "probe", "update"}

    def test_scan_reads_fact_chunk_twice(self):
        database = make_database()
        dbms = database.dbms
        fact = dbms.tables["lineitem"].info
        driver = TpchScanDriver(database, seed=5, scan_pages=8)
        reads: list[int] = []
        original = dbms.read_page

        def spy(page_id):
            reads.append(page_id)
            return original(page_id)

        dbms.read_page = spy
        try:
            driver.run_one(kind="scan")
        finally:
            dbms.read_page = original
        fact_reads = [p for p in reads if fact.first_page <= p < fact.end_page]
        assert len(fact_reads) == 16  # 8-page chunk, two passes
        assert fact_reads[:8] == fact_reads[8:]  # pass 2 re-visits pass 1

    def test_update_dirties_pages(self):
        database = make_database()
        driver = TpchScanDriver(database, seed=5, update_fraction=1.0)
        for _ in range(20):
            driver.run_one(kind="update")
        assert database.dbms.committed == 20

    def test_determinism(self):
        a = TpchScanDriver(make_database(), seed=5, **TPCH_PRESETS["htap"])
        b = TpchScanDriver(make_database(), seed=5, **TPCH_PRESETS["htap"])
        kinds_a = [a.run_one().kind for _ in range(40)]
        kinds_b = [b.run_one().kind for _ in range(40)]
        assert kinds_a == kinds_b

    def test_scan_pages_clamps_to_fact_table(self):
        database = make_database()
        fact_pages = database.dbms.tables["lineitem"].info.n_pages
        driver = TpchScanDriver(database, seed=5, scan_pages=10**6)
        assert driver.scan_pages == fact_pages

    def test_validation(self):
        database = make_database()
        with pytest.raises(WorkloadError):
            TpchScanDriver(database, scan_pages=0)
        with pytest.raises(WorkloadError):
            TpchScanDriver(database, scan_skew=-0.1)
        with pytest.raises(WorkloadError):
            TpchScanDriver(database, probe_fraction=0.7, update_fraction=0.7)
        driver = TpchScanDriver(database)
        with pytest.raises(WorkloadError):
            driver.run_one(kind="delete")
        with pytest.raises(WorkloadError):
            driver.run(-1)


class TestScanResistance:
    def test_gsc_beats_lru2_under_pure_scans(self):
        # The §3.3 mechanism end to end at test scale: mvFIFO+GSC keeps
        # the two-pass fact working set; LC's LRU-2 ranking chain-
        # cannibalises pass-1 admissions before pass 2 arrives.  The full
        # gated comparison lives in benchmarks/BENCH_scan.json.
        from repro.core.config import scaled_reference_config
        from repro.sim.parallel import CellSpec, run_cell
        from repro.sim.scenario import SteadyStateScenario
        from repro.workload.registry import estimate_workload_pages, workload_spec

        spec_w = workload_spec("tpch-scan")
        pages = estimate_workload_pages(spec_w, TINY)
        hits = {}
        for policy in (CachePolicy.FACE_GSC, CachePolicy.LC):
            result = run_cell(CellSpec(
                key=(policy.value,),
                config=scaled_reference_config(
                    pages, cache_fraction=0.08, policy=policy
                ),
                scale=TINY,
                seed=42,
                workload=spec_w,
                # The benchmark's protocol: shorter windows stop before
                # LRU-2's chain-cannibalisation reaches steady state.
                scenario=SteadyStateScenario(
                    measure_transactions=400, warmup_min=60, warmup_max=800
                ),
            ))
            hits[policy] = result.flash_hit_rate
        assert hits[CachePolicy.FACE_GSC] > hits[CachePolicy.LC]
