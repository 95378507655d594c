#!/usr/bin/env python3
"""Count the flash cache's I/O and see the paper's core mechanism.

Runs FaCE+GSC and Lazy Cleaning on the same workload and reads what the
flash device counted, by kind of operation, while it ran.  It shows what
the paper's Section 3 argues: FaCE's writes are sequential appends (cheap
on flash), LC's are random in-place overwrites (an order of magnitude more
expensive).

Run:  python examples/io_pattern_analysis.py
"""

from __future__ import annotations

from dataclasses import asdict

from repro import CachePolicy, ExperimentRunner, scaled_reference_config
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH

TRANSACTIONS = 800


def count_policy(policy: CachePolicy) -> tuple[str, dict[str, float]]:
    """The policy's display name and what its flash device counted over
    ``TRANSACTIONS`` transactions after warm-up."""
    config = scaled_reference_config(
        estimate_db_pages(BENCH), cache_fraction=0.12, policy=policy
    )
    runner = ExperimentRunner(config, BENCH, seed=42)
    runner.warm_up()
    stats = runner.dbms.flash.device.stats
    before = asdict(stats)
    runner.driver.run(TRANSACTIONS)
    after = asdict(stats)
    return runner.config.display_name, {k: after[k] - before[k] for k in after}


def sequential_fraction(counts: dict[str, float]) -> float:
    """Fraction of written pages that moved at sequential cost — the
    paper's flash-write-pattern metric."""
    written = counts["seq_write_pages"] + counts["random_write_pages"]
    return counts["seq_write_pages"] / written if written else 0.0


def describe(name: str, counts: dict[str, float]) -> None:
    ops = sum(v for k, v in counts.items() if k.endswith("_ops"))
    pages = sum(v for k, v in counts.items() if k.endswith("_pages"))
    print(f"{name}:")
    print(f"  flash ops            {ops:10,.0f}")
    print(f"  pages moved          {pages:10,.0f}")
    print(f"  random writes        {counts['random_write_ops']:10,.0f}")
    print(f"  sequential writes    {counts['seq_write_ops']:10,.0f}")
    print(f"  seq fraction (pages) {sequential_fraction(counts):10.1%}")
    print(f"  flash busy time      {counts['busy_time']:10.3f}s simulated\n")


def main() -> None:
    face_name, face = count_policy(CachePolicy.FACE_GSC)
    lc_name, lc = count_policy(CachePolicy.LC)

    describe(face_name, face)
    describe(lc_name, lc)

    print(f"write pattern: {face_name} {sequential_fraction(face):.0%} sequential vs "
          f"{lc_name} {sequential_fraction(lc):.0%} — the Section 3 contrast, measured.")


if __name__ == "__main__":
    main()
