#!/usr/bin/env python3
"""Quickstart: build a FaCE system, run TPC-C, read the headline numbers.

Builds the scaled TPC-C database, runs the standard transaction mix against
a FaCE+GSC flash cache (the paper's best configuration) and against the
no-cache baseline, and prints the comparison the paper's abstract makes:
the flash cache roughly doubles-or-better the transaction throughput of a
disk-based OLTP system.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import CachePolicy, ExperimentRunner, scaled_reference_config
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH

TRANSACTIONS = 2_000


def run_policy(policy: CachePolicy, db_pages: int):
    """Warm up and measure one configuration."""
    config = scaled_reference_config(
        db_pages,
        cache_fraction=0.12,  # the paper's mid-sweep point (6 GB / 50 GB)
        policy=policy,
    )
    runner = ExperimentRunner(config, BENCH, seed=42)
    warmup = runner.warm_up()
    result = runner.measure(TRANSACTIONS)
    print(f"  warmed up with {warmup} transactions, measured {TRANSACTIONS}")
    return result


def main() -> None:
    db_pages = estimate_db_pages(BENCH)
    print(f"TPC-C database: {db_pages:,} pages "
          f"({BENCH.warehouses} warehouses, ratios per the paper)\n")

    print("FaCE+GSC (flash cache = 12% of the database):")
    face = run_policy(CachePolicy.FACE_GSC, db_pages)
    print(f"  tpmC                {face.tpmc:10,.0f}")
    print(f"  flash hit rate      {face.flash_hit_rate:10.1%}")
    print(f"  disk-write reduction{face.write_reduction:10.1%}")
    print(f"  flash utilization   {face.flash_utilization:10.1%}\n")

    print("HDD-only baseline:")
    hdd = run_policy(CachePolicy.NONE, db_pages)
    print(f"  tpmC                {hdd.tpmc:10,.0f}\n")

    speedup = face.tpmc / hdd.tpmc
    print(f"FaCE+GSC speedup over HDD-only: {speedup:.1f}x")
    print("(the paper reports 'up to a factor of two or more'; the scaled")
    print(" simulation typically lands between 2x and 5x at this cache size)")


if __name__ == "__main__":
    main()
