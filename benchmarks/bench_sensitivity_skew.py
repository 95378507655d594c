"""Sensitivity study: access skew (beyond the paper's fixed TPC-C skew).

The paper evaluates one workload (TPC-C's NURand).  This study sweeps the
Zipf exponent of a synthetic key-value workload to show *when* a flash
cache pays off — the §2.2 analysis predicts the benefit tracks the hit
rate a second-level cache can reach, which collapses as accesses approach
uniform and the cache fraction stays fixed.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.config import CachePolicy, SystemConfig
from repro.core.dbms import SimulatedDBMS
from repro.workload.registry import make_workload
from benchmarks.conftest import FULL_MODE, once

N_KEYS = 40_000  # ~1,700 pages of data+index
SKEWS = (0.0, 0.5, 0.99, 1.3)
TX = 2_500 if FULL_MODE else 1_200


def _run(zipf_s: float, policy: CachePolicy):
    config = SystemConfig(
        buffer_pages=32,
        cache_policy=policy,
        cache_pages=128,  # ~8% of the data, like the paper's operating point
        segment_entries=64,
        scan_depth=32,
        n_disks=8,
        disk_capacity_pages=1 << 17,
    )
    dbms = SimulatedDBMS(config)
    workload = make_workload(
        "ycsb", dbms, seed=11, n_keys=N_KEYS, zipf_s=zipf_s, update_fraction=0.3
    )
    workload.run(max(200, TX // 4))  # warm-up
    dbms.reset_measurements()
    workload.run(TX)
    wall = dbms.wall_clock()
    tx_rate = TX / wall if wall else 0.0
    return tx_rate, dbms.cache.stats.flash_hit_rate


def test_sensitivity_to_access_skew(benchmark):
    def run():
        out = {}
        for s in SKEWS:
            face_rate, face_hit = _run(s, CachePolicy.FACE_GSC)
            hdd_rate, _ = _run(s, CachePolicy.NONE)
            out[s] = (face_rate, hdd_rate, face_hit)
        return out

    results = once(benchmark, run)

    print()
    print(
        format_table(
            "Sensitivity - FaCE+GSC benefit vs Zipf skew (cache = 8% of data)",
            ["zipf s", "FaCE tx/s", "HDD tx/s", "speedup", "flash hit %"],
            [
                (
                    s,
                    round(face, 1),
                    round(hdd, 1),
                    f"{face / hdd:.2f}x",
                    round(100 * hit, 1),
                )
                for s, (face, hdd, hit) in results.items()
            ],
        )
    )

    # Flash hit rate rises with skew...
    hits = [results[s][2] for s in SKEWS]
    assert hits[-1] > hits[0] + 0.15
    # ...and so does the cache's speedup over no-cache.
    speedups = [results[s][0] / results[s][1] for s in SKEWS]
    assert speedups[-1] > speedups[0]
    # Under strong skew the cache is clearly worth it.
    assert speedups[-1] > 1.3
    # Even uniform traffic is not *hurt* materially (FaCE adds ~no disk I/O).
    assert speedups[0] > 0.8
