"""Crash recovery: durability and atomicity across every cache policy."""

import pytest

from repro.core.config import CachePolicy
from repro.recovery.restart import RecoveryManager, crash_and_restart
from tests.conftest import kv_dbms_with, kv_read, kv_write

ALL_POLICIES = [
    CachePolicy.NONE,
    CachePolicy.FACE,
    CachePolicy.FACE_GR,
    CachePolicy.FACE_GSC,
    CachePolicy.LC,
    CachePolicy.TAC,
    CachePolicy.EXADATA,
]


@pytest.mark.parametrize("policy", ALL_POLICIES)
class TestDurabilityAcrossPolicies:
    """Invariant 4 of DESIGN.md: committed updates survive a crash and
    uncommitted ones are rolled back — under every cache policy."""

    def test_committed_update_survives_crash(self, policy):
        dbms = kv_dbms_with(policy)
        kv_write(dbms, 5, "committed")
        crash_and_restart(dbms)
        assert kv_read(dbms, 5) == (5, "committed")

    def test_committed_update_survives_even_after_eviction(self, policy):
        dbms = kv_dbms_with(policy)
        kv_write(dbms, 5, "evicted-later")
        for k in range(8, 60):  # push the dirty page out of DRAM
            kv_read(dbms, k)
        crash_and_restart(dbms)
        assert kv_read(dbms, 5) == (5, "evicted-later")

    def test_uncommitted_update_rolled_back(self, policy):
        dbms = kv_dbms_with(policy)
        kv_write(dbms, 5, "never-committed", commit=False)
        # Force the dirty page out so it reaches a non-volatile tier.
        for k in range(8, 60):
            kv_read(dbms, k)
        crash_and_restart(dbms)
        assert kv_read(dbms, 5) == (5, "v5")

    def test_unforced_uncommitted_update_vanishes(self, policy):
        dbms = kv_dbms_with(policy)
        kv_write(dbms, 5, "volatile", commit=False)  # still only in DRAM+tail
        crash_and_restart(dbms)
        assert kv_read(dbms, 5) == (5, "v5")

    def test_updates_across_checkpoint_survive(self, policy):
        dbms = kv_dbms_with(policy)
        kv_write(dbms, 1, "before-ckpt")
        dbms.checkpoint()
        kv_write(dbms, 2, "after-ckpt")
        crash_and_restart(dbms)
        assert kv_read(dbms, 1) == (1, "before-ckpt")
        assert kv_read(dbms, 2) == (2, "after-ckpt")

    def test_loser_spanning_checkpoint_is_undone(self, policy):
        dbms = kv_dbms_with(policy)
        tx = kv_write(dbms, 5, "spanning-loser", commit=False)
        dbms.checkpoint()  # tx is active at checkpoint time
        kv_write(dbms, 6, "winner")
        report = crash_and_restart(dbms)
        assert report.losers == 1
        assert kv_read(dbms, 5) == (5, "v5")
        assert kv_read(dbms, 6) == (6, "winner")

    def test_repeated_updates_keep_only_newest(self, policy):
        dbms = kv_dbms_with(policy)
        for version in range(5):
            kv_write(dbms, 7, f"version{version}")
            for k in range(8, 40):  # churn to stack versions in the cache
                kv_read(dbms, k)
        crash_and_restart(dbms)
        assert kv_read(dbms, 7) == (7, "version4")


class TestRestartReport:
    def test_redo_skips_already_persistent_pages(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 1, "x")
        dbms.checkpoint()
        report = crash_and_restart(dbms)
        assert report.redo_applied == 0  # checkpoint made everything durable

    def test_redo_applies_missing_updates(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        dbms.checkpoint()
        kv_write(dbms, 1, "after")
        report = crash_and_restart(dbms)
        # The first post-checkpoint update of a page ships a full-page
        # image; redo restores via the image (or applies, for any record
        # that follows one).
        assert report.fpw_installed + report.redo_applied >= 1

    def test_face_recovery_reads_mostly_from_flash(self):
        dbms = kv_dbms_with(CachePolicy.FACE_GSC)
        for k in range(40):
            kv_write(dbms, k, f"w{k}")
        dbms.checkpoint()
        for round_ in range(3):  # several updates per page: FPW only covers
            for k in range(40):  # the first; later redo records must fetch
                kv_write(dbms, k, f"w{round_}-{k}")
        report = crash_and_restart(dbms)
        assert report.cache_survived
        total_fetches = report.pages_from_flash + report.pages_from_disk
        if total_fetches:
            assert report.flash_read_fraction > 0.5

    def test_hdd_recovery_reads_only_from_disk(self):
        dbms = kv_dbms_with(CachePolicy.NONE)
        kv_write(dbms, 1, "x")
        dbms.checkpoint()
        kv_write(dbms, 2, "y")
        report = crash_and_restart(dbms)
        assert report.pages_from_flash == 0

    def test_face_restart_faster_than_hdd_restart(self):
        def run(policy):
            dbms = kv_dbms_with(policy, buffer_pages=8)
            for round_ in range(3):
                for k in range(64):
                    kv_write(dbms, k, f"r{round_}-{k}")
                if round_ == 0:
                    dbms.checkpoint()
            return crash_and_restart(dbms).total_time

        assert run(CachePolicy.FACE_GSC) < run(CachePolicy.NONE)

    def test_metadata_restore_time_reported_for_face(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        for k in range(30):
            kv_write(dbms, k, "x")
        report = crash_and_restart(dbms)
        assert report.metadata_restore_time > 0

    def test_phase_times_cover_all_phases(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 1, "x")
        report = crash_and_restart(dbms)
        assert set(report.phase_times) == {
            "metadata", "analysis", "redo", "undo", "checkpoint",
        }
        assert report.total_time == pytest.approx(
            sum(report.phase_times.values()), rel=1e-6
        )

    def test_end_of_recovery_checkpoint_taken(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 1, "x")
        before = dbms.checkpoints
        crash_and_restart(dbms)
        assert dbms.checkpoints == before + 1

    def test_system_usable_after_restart(self):
        dbms = kv_dbms_with(CachePolicy.FACE_GSC)
        kv_write(dbms, 1, "pre-crash")
        crash_and_restart(dbms)
        kv_write(dbms, 2, "post-crash")
        assert kv_read(dbms, 2) == (2, "post-crash")
        # And it can crash and recover again.
        crash_and_restart(dbms)
        assert kv_read(dbms, 1) == (1, "pre-crash")
        assert kv_read(dbms, 2) == (2, "post-crash")

    def test_double_crash_idempotent_redo(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 3, "stable")
        crash_and_restart(dbms)
        report = crash_and_restart(dbms)
        assert kv_read(dbms, 3) == (3, "stable")
        assert report.losers == 0

    def test_recovery_manager_direct_use(self):
        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 1, "x")
        dbms.crash()
        report = RecoveryManager(dbms).restart()
        assert report.total_time > 0


# -- TPC-C restart audit at BENCH -----------------------------------------------


def audited_restart(seed: int, policy: str, page_store: str = "memory"):
    """The BENCH ``tpcc_full`` crash cell of ``perf/workloads.py`` (the
    paper's operating point: the flash queue wraps many times before the
    crash), executed by hand so the restarted system can be audited, on
    ``page_store``.

    Returns ``(verify_all report, check_all report, flat OBS counters)``.
    """
    from repro.db.verify import verify_all
    from repro.obs import OBS
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.parallel import CellSpec
    from repro.sim.runner import ExperimentRunner
    from repro.tpcc.consistency import check_all
    from repro.tpcc.scale import BENCH

    spec = CellSpec.from_config(("crash",), ExperimentConfig(
        scale=BENCH, seed=seed, policy=policy, scenario="crash",
        cache_fraction=0.12, buffer_fraction=0.004, checkpoint_interval=2.0,
        measure_transactions=1000, warmup_min=500, warmup_max=2000,
        crash_max_transactions=3000, page_store=page_store,
    ))
    OBS.clear()
    OBS.enable()
    try:
        runner = ExperimentRunner(
            spec.config, spec.scale, seed=seed, workload=spec.workload_spec()
        )
        spec.resolve_scenario().execute(runner)
        counters = OBS.snapshot().as_flat()
    finally:
        OBS.disable()
        OBS.clear()
    return verify_all(runner.dbms), check_all(runner.database), counters


@pytest.mark.parametrize("page_store", ["memory", "mmap"])
def test_gsc_keeps_every_committed_order_across_a_bench_restart(page_store):
    """BENCH seed 4: GSC re-enqueued a dirty survivor after a metadata flush
    had persisted a front past its only durable copy, and the restart lost
    two committed ORDER index entries (DESIGN.md §7).  On ``mmap`` the
    in-process restart reads flash slots back as the objects the store
    remembered writing."""
    audit, consistency, counters = audited_restart(4, "face+gsc", page_store)
    # The batch machinery was on the path to the crash: the run proves something.
    for name in ("second_chances", "staging.flushes", "dram_pulls"):
        assert counters[f"flashcache.face_gsc.{name}"] > 0, name
    assert audit.ok, audit.violations[:3]
    assert consistency.ok, consistency.violations[:3]


# -- replay past an in-process restart -----------------------------------------


def test_fast_replay_loop_runs_on_after_a_restart(monkeypatch):
    """A crash gives the pool a new replacement policy; the LRU fast loop
    must drive that one, not the policy it saw before (it raised ``page 4
    already buffered``), and match the exact loop bit for bit."""
    import dataclasses

    from repro.core.config import scaled_reference_config
    from repro.sim.replay import ReplayRunner, TraceRecorder
    from repro.tpcc.loader import estimate_db_pages
    from repro.tpcc.scale import TINY

    monkeypatch.setenv("REPRO_REPLAY_WARMFORK", "0")
    config = scaled_reference_config(
        estimate_db_pages(TINY), buffer_fraction=0.05, policy=CachePolicy.FACE_GSC
    )
    recorder = TraceRecorder(TINY, 3)
    results = []
    for fast in (True, False):
        runner = ReplayRunner(config, recorder)
        assert runner._fast  # an LRU pool with OBS off takes the fast loop
        runner._fast = fast
        runner.warm_up(50, 50)
        for _ in range(60):
            runner.step()
        runner.dbms.crash()
        RecoveryManager(runner.dbms).restart()
        for _ in range(60):
            runner.step()
        results.append(dataclasses.asdict(runner.summarise()))
    assert results[0] == results[1]
