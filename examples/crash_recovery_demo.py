#!/usr/bin/env python3
"""Crash a running TPC-C system and watch FaCE's recovery machinery work.

Demonstrates Section 4 end to end:

1. run the workload with periodic checkpoints (FaCE checkpoints flush to
   the *flash cache*, not disk);
2. kill the system mid-checkpoint-interval (`kill -9` in the paper);
3. restart: restore the flash-cache metadata directory from its persistent
   segments + a rear scan, replay the WAL flash-first, undo losers;
4. verify the database is consistent and compare against the same crash on
   an HDD-only system.

Run:  python examples/crash_recovery_demo.py
"""

from __future__ import annotations

from repro import CachePolicy, ExperimentRunner, RecoveryManager, scaled_reference_config
from repro.sim import run_until_crash_point
from repro.tpcc import BENCH, estimate_db_pages

CHECKPOINT_INTERVAL = 2.0  # simulated seconds


def run_crash(policy: CachePolicy, label: str):
    config = scaled_reference_config(
        estimate_db_pages(BENCH), cache_fraction=0.08, policy=policy
    )
    runner = ExperimentRunner(config, BENCH, seed=42)
    runner.warm_up()
    dbms = runner.dbms

    print(f"[{label}] running with {CHECKPOINT_INTERVAL}s checkpoints...")
    executed, checkpoints = run_until_crash_point(
        runner, CHECKPOINT_INTERVAL, crash_point=0.5, max_transactions=20_000
    )
    print(
        f"[{label}] {executed} transactions, {checkpoints} checkpoints, "
        f"crashing at t={dbms.wall_clock():.2f}s..."
    )

    dbms.crash()
    report = RecoveryManager(dbms).restart()

    print(f"[{label}] restart complete in {report.total_time:.3f}s (simulated):")
    print(f"    metadata directory restore : {report.metadata_restore_time:.4f}s "
          f"(cache survived: {report.cache_survived})")
    print(f"    log records scanned        : {report.log_records_scanned:,}")
    print(f"    full-page images installed : {report.fpw_installed:,}")
    print(f"    redo applied / skipped     : {report.redo_applied:,} / "
          f"{report.redo_skipped:,}")
    print(f"    recovery reads from flash  : {report.flash_read_fraction:.1%}")
    print(f"    loser transactions undone  : {report.losers}")

    # The system is immediately usable again.
    runner.driver.run(200)
    print(f"[{label}] processed 200 more transactions after restart\n")
    return report


def main() -> None:
    face = run_crash(CachePolicy.FACE_GSC, "FaCE+GSC")
    hdd = run_crash(CachePolicy.NONE, "HDD-only")
    reduction = 1 - face.total_time / hdd.total_time
    print(
        f"FaCE restart: {face.total_time:.3f}s vs HDD-only {hdd.total_time:.3f}s "
        f"-> {reduction:.0%} shorter outage"
    )
    print("(the paper's Table 6 reports 77-85% across checkpoint intervals)")


if __name__ == "__main__":
    main()
