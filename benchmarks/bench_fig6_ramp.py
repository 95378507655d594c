"""Figure 6: transaction throughput immediately after a restart.

Paper: with FaCE enabled the system resumes processing much sooner (restart
is 4-8x faster) *and* runs at a higher level from the first window, because
the flash cache comes back warm; the HDD-only system restarts slowly and
then ramps from a completely cold buffer.

The bench replays the experiment: run, checkpoint, crash mid-interval,
restart, then record windowed tpmC including the restart outage.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.recovery.restart import RecoveryManager
from repro.sim.metrics import ThroughputSeries
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import run_until_crash_point
from repro.tpcc.scale import BENCH
from benchmarks.conftest import FULL_MODE, WARMUP_MAX, WARMUP_MIN, config_for, once

CACHE_FRACTION = 0.12
CHECKPOINT_INTERVAL = 2.0
WINDOW = 1.0
POST_TX = 6000 if FULL_MODE else 3000


def _run(policy: str):
    runner = ExperimentRunner(config_for(policy, CACHE_FRACTION), BENCH)
    runner.warm_up(WARMUP_MIN, WARMUP_MAX)
    dbms = runner.dbms
    # Reach steady state, checkpoint, then pull the plug mid-interval
    # (as in Section 5.5).
    run_until_crash_point(
        runner, CHECKPOINT_INTERVAL, crash_point=0.5, max_transactions=20_000
    )
    dbms.crash()
    restart = RecoveryManager(dbms).restart()

    # Post-restart phase: measure from the moment of the crash.
    dbms.reset_measurements()
    runner.driver.stats.reset()
    outage = restart.total_time  # the recovery outage precedes transaction work
    series = ThroughputSeries()
    series.record(outage, 0)
    executed = 0
    while executed < POST_TX:
        runner.driver.run_one()
        executed += 1
        if executed % 50 == 0:
            series.record(
                outage + dbms.wall_clock(), runner.driver.stats.neworder_commits
            )
    series.record(outage + dbms.wall_clock(), runner.driver.stats.neworder_commits)
    return restart, series


def test_fig6_post_restart_throughput(benchmark):
    results = once(benchmark, lambda: {p: _run(p) for p in ("FaCE+GSC", "HDD-only")})

    windows: dict[str, list[tuple[float, float]]] = {}
    for policy, (restart, series) in results.items():
        windows[policy] = series.windowed_tpmc(WINDOW)

    horizon = min(len(windows["FaCE+GSC"]), len(windows["HDD-only"]), 12)
    rows = []
    for i in range(horizon):
        rows.append(
            (
                f"{windows['FaCE+GSC'][i][0]:.0f}s",
                round(windows["FaCE+GSC"][i][1]),
                round(windows["HDD-only"][i][1]),
            )
        )
    print()
    print(
        format_table(
            "Figure 6 - tpmC per 1s window after the crash (t=0)",
            ["window end", "FaCE+GSC", "HDD-only"],
            rows,
        )
    )
    face_restart, _ = results["FaCE+GSC"]
    hdd_restart, _ = results["HDD-only"]
    print(
        f"restart outage: FaCE+GSC {face_restart.total_time:.2f}s, "
        f"HDD-only {hdd_restart.total_time:.2f}s"
    )

    # FaCE resumes sooner: its outage is a fraction of HDD-only's.
    assert face_restart.total_time < 0.6 * hdd_restart.total_time
    # And it processes more transactions in the early windows.
    early = range(min(6, horizon))
    face_early = sum(windows["FaCE+GSC"][i][1] for i in early)
    hdd_early = sum(windows["HDD-only"][i][1] for i in early)
    assert face_early > 1.5 * hdd_early
    # Steady-state throughput after the ramp is also higher under FaCE.
    assert windows["FaCE+GSC"][horizon - 1][1] > windows["HDD-only"][horizon - 1][1]
