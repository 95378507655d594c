"""End-to-end integration: TPC-C workload + crash recovery consistency.

Checks the TPC-C consistency conditions (specification clause 3.3) hold
after a workload run, and continue to hold after a crash + restart under
the FaCE policies — the full-system version of the durability invariant.
"""

from __future__ import annotations

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.recovery.restart import crash_and_restart
from repro.tpcc.driver import TpccDriver
from repro.tpcc.loader import TpccDatabase, load_tpcc
from repro.tpcc.scale import TINY
from tests.conftest import tiny_config


def build(policy: CachePolicy) -> TpccDriver:
    dbms = SimulatedDBMS(
        tiny_config(policy, disk_capacity_pages=8192, cache_pages=96,
                    buffer_pages=12)
    )
    return TpccDriver(load_tpcc(dbms, TINY, seed=5), seed=21)


def check_consistency(database: TpccDatabase) -> None:
    """TPC-C clause 3.3.2.1-2: D_NEXT_O_ID chains and order counts."""
    dbms = database.dbms
    scale = database.scale
    for w in range(1, scale.warehouses + 1):
        for d in range(1, scale.districts_per_warehouse + 1):
            d_row = dbms.fetch_row("district", database.district_rid(w, d))
            next_o_id = d_row[10]
            # The most recent order id must be next_o_id - 1 and present.
            newest = dbms.index_lookup("order_pk", (w, d, next_o_id - 1))
            assert newest is not None, f"missing newest order in ({w},{d})"
            assert dbms.index_lookup("order_pk", (w, d, next_o_id)) is None
            # Every undelivered order id has a NEW-ORDER row and vice versa.
            for o_id in database.undelivered[(w, d)]:
                assert dbms.index_lookup("new_order_pk", (w, d, o_id)) is not None


@pytest.mark.parametrize(
    "policy",
    [CachePolicy.FACE_GSC, CachePolicy.FACE, CachePolicy.LC, CachePolicy.NONE],
)
def test_workload_preserves_consistency(policy):
    driver = build(policy)
    driver.run(300)
    check_consistency(driver.database)
    assert driver.stats.committed > 250


@pytest.mark.parametrize("policy", [CachePolicy.FACE_GSC, CachePolicy.FACE])
def test_consistency_survives_crash_mid_workload(policy):
    driver = build(policy)
    driver.run(150)
    driver.database.dbms.checkpoint()
    driver.run(150)
    report = crash_and_restart(driver.database.dbms)
    check_consistency(driver.database)
    assert report.total_time > 0
    # The system keeps working after restart.
    driver.run(100)
    check_consistency(driver.database)


def test_multiple_crashes_interleaved_with_workload():
    driver = build(CachePolicy.FACE_GSC)
    for round_ in range(3):
        driver.run(120)
        crash_and_restart(driver.database.dbms)
        check_consistency(driver.database)


def test_warehouse_ytd_equals_district_ytd_sum():
    """TPC-C consistency condition 1: W_YTD = sum(D_YTD)."""
    driver = build(CachePolicy.FACE_GSC)
    driver.run(400)
    dbms, database = driver.database.dbms, driver.database
    for w in range(1, TINY.warehouses + 1):
        w_ytd = dbms.fetch_row("warehouse", database.warehouse_rid(w))[8]
        d_sum = sum(
            dbms.fetch_row("district", database.district_rid(w, d))[9]
            for d in range(1, TINY.districts_per_warehouse + 1)
        )
        initial_w, initial_d = 300_000.0, 30_000.0 * TINY.districts_per_warehouse
        assert w_ytd - initial_w == pytest.approx(d_sum - initial_d, rel=1e-9)


def test_face_outperforms_hdd_only_even_at_tiny_scale():
    """Smoke-level shape check: with a warm cache, FaCE+GSC must beat the
    no-cache configuration on the same workload and seed."""
    results = {}
    for policy in (CachePolicy.FACE_GSC, CachePolicy.NONE):
        driver = build(policy)
        driver.run(200)  # warm-up
        driver.database.dbms.reset_measurements()
        driver.stats.reset()
        driver.run(300)
        wall = driver.database.dbms.wall_clock()
        results[policy] = driver.stats.neworder_commits / wall
    assert results[CachePolicy.FACE_GSC] > results[CachePolicy.NONE]
