"""ExperimentRunner internals: warm-up detection across policy shapes."""

import pytest

from repro.core.config import CachePolicy
from repro.sim.runner import ExperimentRunner, RunResult
from repro.tpcc.scale import TINY
from tests.conftest import tiny_config


def make_runner(policy: CachePolicy, **overrides) -> ExperimentRunner:
    config = tiny_config(
        policy, disk_capacity_pages=8192, cache_pages=64, buffer_pages=12,
        **overrides,
    )
    return ExperimentRunner(config, TINY, seed=8)


def test_warmup_fills_mvfifo_directory():
    runner = make_runner(CachePolicy.FACE)
    runner.warm_up(50, 4000)
    assert runner.dbms.cache.directory.is_full


def test_warmup_fills_lc_slots():
    runner = make_runner(CachePolicy.LC)
    runner.warm_up(50, 4000)
    assert runner.dbms.cache.cached_pages >= 0.95 * 64


def test_warmup_terminates_for_null_cache():
    runner = make_runner(CachePolicy.NONE)
    executed = runner.warm_up(50, 4000)
    assert executed == 50  # nothing to populate: stops at the minimum


def test_warmup_bounded_for_tac():
    runner = make_runner(CachePolicy.TAC)
    executed = runner.warm_up(50, 800)
    assert executed <= 800  # the max_transactions bound always holds


def test_measure_without_warmup_still_works():
    runner = make_runner(CachePolicy.FACE_GSC)
    result = runner.measure(100)
    assert result.transactions == 100


def test_summarise_is_idempotent_snapshot():
    runner = make_runner(CachePolicy.FACE_GSC)
    runner.warm_up(50, 2000)
    runner.measure(150)
    a, b = runner.summarise(), runner.summarise()
    assert a.tpmc == b.tpmc
    assert a.cache_stats == b.cache_stats


def test_run_result_flash_utilization_property():
    result = RunResult(
        name="x", transactions=1, wall_seconds=1.0, tpmc=1.0,
        dram_hit_rate=0.0, flash_hit_rate=0.0, write_reduction=0.0,
        utilization={"flash": 0.42},
    )
    assert result.flash_utilization == 0.42
    empty = RunResult(
        name="x", transactions=1, wall_seconds=1.0, tpmc=1.0,
        dram_hit_rate=0.0, flash_hit_rate=0.0, write_reduction=0.0,
    )
    assert empty.flash_utilization == 0.0


def test_ssd_only_runner_has_no_flash_resource():
    runner = make_runner(CachePolicy.SSD_ONLY)
    runner.warm_up(50, 200)
    result = runner.measure(100)
    assert result.utilization["flash"] == 0.0
    assert result.utilization["log"] == 0.0  # WAL shares the database SSD
    assert result.flash_page_iops == 0.0


def test_checkpoint_interval_zero_disallowed_by_measure():
    # A zero interval means "checkpoint constantly": legal but pathological;
    # the runner treats it literally and still terminates.
    runner = make_runner(CachePolicy.FACE)
    runner.warm_up(50, 1000)
    result = runner.measure(30, checkpoint_interval=0.0)
    assert runner.dbms.checkpoints >= 1
    assert result.transactions == 30
