#!/usr/bin/env python3
"""Use the storage engine directly — build your own workload on FaCE.

The TPC-C driver is just one client of the engine.  This example creates a
custom table + index, runs hand-written transactions (including an abort),
takes a checkpoint, survives a crash, and inspects the cache internals —
everything a downstream user needs to put their own workload on top of the
library.

Run:  python examples/custom_engine_usage.py
"""

from __future__ import annotations

from repro import CachePolicy, SimulatedDBMS, SystemConfig, crash_and_restart
from repro.db.schema import TableSchema, float_col, int_col, str_col

ACCOUNTS = 2_000

SCHEMA = TableSchema(
    name="accounts",
    columns=(int_col("id"), str_col("owner", 24), float_col("balance")),
    primary_key=("id",),
)


def build_bank() -> SimulatedDBMS:
    config = SystemConfig(
        buffer_pages=64,
        cache_policy=CachePolicy.FACE_GSC,
        cache_pages=512,
        segment_entries=128,
        scan_depth=32,
        n_disks=4,
        disk_capacity_pages=1 << 16,
    )
    dbms = SimulatedDBMS(config)
    dbms.create_table(SCHEMA, expected_rows=ACCOUNTS, growth_factor=1.5)
    dbms.create_index("accounts_pk", "accounts", n_pages=ACCOUNTS // 300 + 1)

    # Bulk load, a page at a time: rows first, then the index entries
    # ((key, rid) pairs) — untimed, like the paper's initial population.
    dbms.begin_load()
    rows = [(account_id, f"owner-{account_id}", 100.0) for account_id in range(ACCOUNTS)]
    first = dbms.load_rows("accounts", rows)
    rids = dbms.tables["accounts"].rids(first, len(rows))
    dbms.load_index("accounts_pk", (((row[0],), rid) for row, rid in zip(rows, rids)))
    dbms.finish_load()
    return dbms


def transfer(dbms: SimulatedDBMS, src: int, dst: int, amount: float,
             fail: bool = False) -> bool:
    """Move money between accounts; abort (atomically) when asked to fail."""
    tx = dbms.begin()
    src_rid = dbms.index_lookup("accounts_pk", (src,))
    dst_rid = dbms.index_lookup("accounts_pk", (dst,))
    src_row = dbms.fetch_row("accounts", src_rid)
    dst_row = dbms.fetch_row("accounts", dst_rid)
    dbms.update_row(tx, "accounts", src_rid,
                    (src_row[0], src_row[1], src_row[2] - amount))
    dbms.update_row(tx, "accounts", dst_rid,
                    (dst_row[0], dst_row[1], dst_row[2] + amount))
    if fail or src_row[2] - amount < 0:
        dbms.abort(tx)
        return False
    dbms.commit(tx)
    return True


def balance(dbms: SimulatedDBMS, account: int) -> float:
    rid = dbms.index_lookup("accounts_pk", (account,))
    return dbms.fetch_row("accounts", rid)[2]


def main() -> None:
    dbms = build_bank()
    print(f"loaded {ACCOUNTS} accounts across {dbms.db_pages} pages")

    # Committed transfers stick; aborted ones roll back atomically.
    transfer(dbms, 0, 1, 25.0)
    transfer(dbms, 2, 3, 10.0, fail=True)
    print(f"after transfers: a0={balance(dbms, 0):.2f} a1={balance(dbms, 1):.2f} "
          f"a2={balance(dbms, 2):.2f} (abort rolled back)")

    # Work the cache a little, checkpoint into it, then crash.
    for i in range(0, ACCOUNTS, 7):
        transfer(dbms, i, (i + 1) % ACCOUNTS, 1.0)
    dbms.checkpoint()
    for i in range(0, ACCOUNTS, 13):
        transfer(dbms, i, (i + 5) % ACCOUNTS, 2.0)

    total_before = sum(balance(dbms, a) for a in range(ACCOUNTS))
    report = crash_and_restart(dbms)
    total_after = sum(balance(dbms, a) for a in range(ACCOUNTS))

    print(f"crash + restart in {report.total_time:.3f}s simulated "
          f"({report.flash_read_fraction:.0%} of recovery reads from flash)")
    print(f"money conserved across the crash: {total_before:.2f} == {total_after:.2f}")
    assert abs(total_before - total_after) < 1e-6

    # Peek at the cache internals.
    cache = dbms.cache
    print(f"cache: {cache.name}, {cache.directory.size} live slots, "
          f"{cache.duplicate_fraction:.0%} duplicate versions, "
          f"hit rate so far {cache.stats.flash_hit_rate:.0%}")


if __name__ == "__main__":
    main()
