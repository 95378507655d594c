"""Frames-per-transaction budget: the executed access path stays flat.

An executed TPC-C transaction reads some 75 pages and logs some 18 slot
changes, and each of those walks ``read_page`` / ``update_slot_tx`` and the
layers beneath them.  ``tests/test_miss_path_budget.py`` holds the DRAM-miss
path to its budget; this test holds the rest — every Python frame a
transaction enters *outside* ``SimulatedDBMS._fetch_miss`` — on a small
fixed TPC-C cell, to the figure measured when the path above the miss was
flattened, plus 10 %.  The count is deterministic; a re-added hop (a
property, a helper, a per-access policy object) fails here instead of
hiding in benchmark noise.
"""

from __future__ import annotations

import sys

from repro.core.dbms import SimulatedDBMS
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import ExperimentRunner
from repro.tpcc.scale import TINY

#: Frames per transaction outside ``_fetch_miss`` measured on this cell
#: (CPython 3.11).  The same cell cost 752.6 before the index probe, row
#: read, logged update and WAL append lost their helper frames and LRU its
#: policy object (DESIGN.md §6, "Host cost of an executed access").
MEASURED = 389.2


def frames_per_transaction(transactions: int = 300) -> tuple[float, int]:
    """Run the fixed cell; returns (frames outside ``_fetch_miss`` per
    transaction, DRAM misses)."""
    config = ExperimentConfig(scale=TINY, seed=42, policy="face+gsc").system_config()
    runner = ExperimentRunner(config, TINY, seed=42)
    runner.warm_up(100, 100)
    miss_code = SimulatedDBMS._fetch_miss.__code__
    counts = {"outside": 0, "misses": 0}
    depth = [0]

    def profiler(frame, event, arg):
        if frame.f_code is miss_code:
            if event == "call":
                depth[0] += 1
                counts["misses"] += 1
            elif event == "return":
                depth[0] -= 1
        elif event == "call" and not depth[0]:
            counts["outside"] += 1

    run_one = runner.driver.run_one
    sys.setprofile(profiler)
    try:
        for _ in range(transactions):
            run_one()
    finally:
        sys.setprofile(None)
    return counts["outside"] / transactions, counts["misses"]


def test_frames_per_executed_transaction_stay_within_budget():
    measured, misses = frames_per_transaction()
    assert misses > 50  # the cell does miss: the count excludes real work
    assert measured <= MEASURED * 1.10, (
        f"{measured:.1f} Python frames per executed transaction outside "
        f"_fetch_miss; the flattened path measured {MEASURED} (see DESIGN.md §6, "
        f"Host cost of an executed access)"
    )
