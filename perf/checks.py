"""Correctness checks of the end-to-end pass.

Every check lands in the run's ``attempted`` / ``failed`` counts.  They are
of three kinds: two execution paths that must agree field for field
(replay against full execution, a persistent page store against the
in-memory one), audits of a restarted database, and the orderings the paper
reports (Fig. 4, Table 4) that hold at this scale on every seed tried.
"""

from __future__ import annotations

import dataclasses
import tempfile
import traceback

from hostclock import measured

#: Key under which the end-to-end pass leaves ``(result, cost)`` of the
#: reference steady cell executed in full (``tpcc_replay_grid`` only).
FULL_EXECUTION = ("full-execution",)


def _bottleneck(result) -> str:
    return max(result.utilization, key=result.utilization.get)


def same_result(a, b) -> bool:
    """Field-for-field equality of two results, obs snapshots aside."""
    return dataclasses.replace(a, obs=None) == dataclasses.replace(b, obs=None)


def audited_crash(spec, tally) -> None:
    """Run a crash cell in full, by hand, and audit the restarted system.

    ``run_cells`` returns the restart report but not the DBMS, so the
    scenario is executed here against an :class:`ExperimentRunner` whose
    database is then checked tier by tier and against TPC-C's consistency
    conditions.
    """
    from repro.db.verify import verify_all
    from repro.sim.runner import ExperimentRunner
    from repro.tpcc.consistency import check_all

    tally.cells += 1
    runner = ExperimentRunner(
        spec.config, spec.scale, seed=spec.seed, workload=spec.workload_spec()
    )
    spec.resolve_scenario().execute(runner)
    audit = verify_all(runner.dbms)
    tally.check(
        "restart audit: tiers ordered, directory agrees",
        audit.ok, "; ".join(audit.violations[:3]),
    )
    # Reported, not counted: at BENCH seed 4 the program loses an ORDER index
    # entry across this restart (README.md, "Findings"), and a benchmark may
    # only count checks the parent commit passes on every seed.
    consistency = check_all(runner.database)
    if not consistency.ok:
        tally.warn(
            "restart audit: TPC-C consistency conditions",
            "; ".join(consistency.violations[:3]),
        )


def sigkill_durability(tally) -> None:
    """One real process death on the mmap store, at TINY.

    The victim is SIGKILLed at its crash point and the surviving files are
    reopened: this proves durability against *process death* (the kernel
    page cache outlives the process), not against power loss.
    """
    from repro.sim.hardcrash import run_hard_crash

    state_dir = tempfile.mkdtemp(prefix="sigkill-")  # under the run's scratch
    victim = [
        "--scale", "tiny", "--seed", "42", "--page-store", "mmap",
        "crash", "--victim", "--policy", "face+gsc", "--interval", "0.1",
        "--crash-point", "0.5", "--state-dir", state_dir,
    ]
    report = run_hard_crash(victim, state_dir)
    tally.check(
        "durability.sigkill: every predicted LBA survived, restart matches the model",
        report["passed"], f"mismatches={report['mismatches']} survival={report['survival']}",
    )


def check_tpcc_full(plan, results, tally, sizes) -> None:
    audited_crash(plan.spec(plan.ref_crash), tally)
    if sizes.paper_regime:
        steady = results[plan.ref_steady]
        tally.check(
            "Table 4: FaCE's bottleneck at 0.12 is the disk",
            _bottleneck(steady) == "disk", f"bottleneck={_bottleneck(steady)}",
        )


def check_tpcc_replay_grid(plan, results, tally, sizes) -> None:
    from repro.sim.parallel import run_cell_warm
    from repro.sim.warmstate import get_snapshot

    # Replay must equal full execution.  The traced pass does the same on the
    # crash and dram_fit cells, and needs this run's cost for the speed-up it
    # reports: when both passes run in one process it takes it from here.
    tally.cells += 1
    spec = plan.spec(plan.ref_steady)
    get_snapshot(spec.scale, spec.seed, spec.workload_spec())  # the load is not the cell's cost
    full, cost = measured(lambda: run_cell_warm(spec))
    results[FULL_EXECUTION] = (full, cost)
    tally.check(
        f"replay == full execution on {plan.ref_steady}",
        same_result(results[plan.ref_steady], full),
        "replayed and executed results differ",
    )
    if not sizes.paper_regime:
        return
    gsc04, gsc12, gsc20, lc12, hdd12 = (
        results[("steady", policy, fraction)]
        for policy, fraction in (("face+gsc", 0.04), ("face+gsc", 0.12),
                                 ("face+gsc", 0.20), ("lc", 0.12), ("hdd-only", 0.12))
    )
    tally.check(
        "Fig. 4: tpmC face+gsc > lc > hdd-only at 0.12",
        gsc12.tpmc > lc12.tpmc > hdd12.tpmc,
        f"{gsc12.tpmc:.0f} / {lc12.tpmc:.0f} / {hdd12.tpmc:.0f}",
    )
    tally.check(
        "Fig. 4: face+gsc tpmC grows with the cache (0.04 < 0.12 < 0.20)",
        gsc04.tpmc < gsc12.tpmc < gsc20.tpmc,
        f"{gsc04.tpmc:.0f} / {gsc12.tpmc:.0f} / {gsc20.tpmc:.0f}",
    )
    tally.check(
        "Table 4: at 0.12 LC is flash-bound and FaCE disk-bound",
        _bottleneck(lc12) == "flash" and _bottleneck(gsc12) == "disk",
        f"lc={_bottleneck(lc12)} face+gsc={_bottleneck(gsc12)}",
    )


def check_ycsb(plan, results, tally, sizes) -> None:
    # Backends hold bytes, the device model owns time: every store must
    # give the memory store's result exactly.
    for key in (spec.key for spec in plan.timed):
        tally.check(
            f"{key[1]} steady cell == memory store",
            same_result(results[key], results[("steady", "memory")]),
            "persistent and in-memory results differ",
        )
    tally.check(
        "mmap crash cell == memory store",
        same_result(results[plan.ref_crash], results[("crash", "memory", plan.ref_crash[2])]),
        "persistent and in-memory restart reports differ",
    )


def check_ycsb_churn(plan, results, tally, sizes) -> None:
    check_ycsb(plan, results, tally, sizes)
    sigkill_durability(tally)


_CHECKS = {
    "tpcc_full": check_tpcc_full,
    "tpcc_replay_grid": check_tpcc_replay_grid,
    "ycsb_read_persist": check_ycsb,
    "ycsb_churn_persist": check_ycsb_churn,
}


def run_checks(workload: str, plan, results, tally, sizes) -> None:
    """Run the workload's checks.  One that raises — on a result that is
    missing because its cell raised, for instance — counts as failed."""
    try:
        _CHECKS[workload](plan, results, tally, sizes)
    except Exception as exc:
        traceback.print_exc()
        tally.check(f"{workload} checks completed", False, repr(exc))
