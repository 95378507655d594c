"""Frames-per-miss budget: the DRAM-miss path stays flat.

One DRAM miss runs buffer → flash policy → ``Volume`` → ``Device`` some 40
times per TPC-C transaction, so every helper hop on it is paid millions of
times per sweep.  This test counts the Python call frames entered under
``SimulatedDBMS._fetch_miss`` on a small fixed ``face+gsc`` cell and holds
them to the figure measured when the path was flattened, plus 10 %.  The
count is deterministic; a change that re-adds a hop fails here, loudly,
instead of surfacing as a few percent of benchmark noise.
"""

from __future__ import annotations

import sys

from tests.conftest import MISS_CELL_CACHE_PAGES, gsc_miss_cell, miss_cell_ops

#: Frames per miss measured on this cell (CPython 3.11); the same cell cost
#: 69.5 before the path was flattened, 24.9 before eviction, thaw and
#: enqueue lost their constructor and helper hops, 20.0 before the page
#: image lost its constructor frame and the enqueue its directory call, and
#: 19.0 before LRU's order became the pool's frame table (no ``evict``,
#: ``insert`` or pull-time ``remove`` call).  The cell is half updates with
#: an 8-page scan depth, so a miss here does more replacement work than at
#: BENCH scale (10.3 on ``tpcc_full``).
MEASURED = 17.0


def frames_per_miss(dbms, steps: int = 600) -> float:
    """Run the fixed workload, counting ``call`` events under ``_fetch_miss``."""
    counts = {"frames": 0, "misses": 0}
    fetch_miss = dbms._fetch_miss

    def profiler(frame, event, arg):
        if event == "call":
            counts["frames"] += 1

    def counted_fetch_miss(page_id):
        counts["misses"] += 1
        sys.setprofile(profiler)
        try:
            return fetch_miss(page_id)
        finally:
            sys.setprofile(None)

    dbms._fetch_miss = counted_fetch_miss
    for step in miss_cell_ops(dbms, steps, seed=11):
        if step % 100 == 0:
            dbms.checkpoint()
    assert counts["misses"] > 1000
    assert dbms.cache.directory.front > MISS_CELL_CACHE_PAGES  # the queue wrapped
    return counts["frames"] / counts["misses"]


def test_frames_per_dram_miss_stay_within_budget():
    measured = frames_per_miss(gsc_miss_cell())
    assert measured <= MEASURED * 1.10, (
        f"{measured:.2f} Python frames per DRAM miss; the flattened path "
        f"measured {MEASURED} (see DESIGN.md §6, Host cost of a DRAM miss)"
    )
