"""TPC-C driver mix and the experiment runner's measurement discipline."""

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.errors import WorkloadError
from repro.sim.metrics import ThroughputSeries
from repro.sim.runner import ExperimentRunner
from repro.tpcc.driver import TpccDriver
from repro.tpcc.loader import load_tpcc
from repro.tpcc.scale import TINY
from tests.conftest import tiny_config


@pytest.fixture
def driver() -> TpccDriver:
    dbms = SimulatedDBMS(
        tiny_config(CachePolicy.FACE_GSC, disk_capacity_pages=8192, cache_pages=64)
    )
    return TpccDriver(load_tpcc(dbms, TINY, seed=5), seed=9)


class TestDriver:
    def test_mix_approximates_spec_percentages(self, driver):
        driver.run(1000)
        kinds = driver.stats.by_kind
        assert 0.40 <= kinds["new_order"] / 1000 <= 0.50
        assert 0.38 <= kinds["payment"] / 1000 <= 0.48
        for minor in ("order_status", "delivery", "stock_level"):
            assert 0.01 <= kinds[minor] / 1000 <= 0.08

    def test_stats_consistency(self, driver):
        driver.run(300)
        stats = driver.stats
        assert stats.executed == 300
        assert stats.committed + stats.aborted == 300
        assert stats.neworder_commits <= stats.by_kind["new_order"]

    def test_forced_kind(self, driver):
        result = driver.run_one("payment")
        assert result.kind == "payment"

    def test_checkpointer_called_per_transaction(self, driver):
        calls = []
        driver.run(10, checkpointer=lambda: calls.append(1))
        assert len(calls) == 10

    def test_negative_count_rejected(self, driver):
        with pytest.raises(WorkloadError):
            driver.run(-1)

    def test_reset(self, driver):
        driver.run(50)
        driver.stats.reset()
        assert driver.stats.executed == 0
        assert driver.stats.by_kind == {}


class TestRunner:
    def make(self, policy=CachePolicy.FACE_GSC):
        config = tiny_config(
            policy, disk_capacity_pages=8192, cache_pages=64, buffer_pages=16
        )
        return ExperimentRunner(config, TINY, seed=3)

    def test_warmup_populates_cache_then_resets(self):
        runner = self.make()
        executed = runner.warm_up(min_transactions=50, max_transactions=5000)
        assert executed >= 50
        assert runner.dbms.cache.directory.is_full
        assert runner.dbms.wall_clock() == 0.0
        assert runner.driver.stats.executed == 0

    def test_measure_produces_consistent_result(self):
        runner = self.make()
        runner.warm_up(50, 2000)
        result = runner.measure(200)
        assert result.transactions == 200
        assert result.wall_seconds > 0
        assert result.tpmc > 0
        assert 0 <= result.flash_hit_rate <= 1
        assert 0 <= result.dram_hit_rate <= 1
        assert max(result.utilization.values()) == pytest.approx(1.0)
        assert result.name == "FaCE+GSC"

    def test_checkpoint_interval_fires(self):
        runner = self.make()
        runner.warm_up(50, 2000)
        wall_rate = None
        runner.measure(50)
        wall = runner.dbms.wall_clock()
        checkpoint_interval = wall / 10 if wall > 0 else 0.001
        before = runner.dbms.checkpoints
        runner.measure(200, checkpoint_interval=checkpoint_interval)
        assert runner.dbms.checkpoints > before

    def test_series_recording(self):
        runner = self.make()
        runner.warm_up(50, 2000)
        series = ThroughputSeries()
        runner.measure(300, series=series, sample_every=10)
        assert len(series.samples) >= 30
        walls = [s.wall_seconds for s in series.samples]
        assert walls == sorted(walls)
        assert series.samples[-1].neworder_commits == runner.driver.stats.neworder_commits

    def test_hdd_only_runner(self):
        runner = self.make(CachePolicy.NONE)
        runner.warm_up(50, 200)  # nothing to populate: stops at minimum
        result = runner.measure(100)
        assert result.flash_hit_rate == 0.0
        assert result.utilization["flash"] == 0.0


class TestThroughputSeries:
    def test_windowing_differentiates_cumulative_counts(self):
        series = ThroughputSeries()
        series.record(5.0, 10)
        series.record(15.0, 30)
        series.record(25.0, 40)
        windows = series.windowed_tpmc(10.0)
        assert windows[0] == (10.0, pytest.approx(10 * 6.0))
        assert windows[1] == (20.0, pytest.approx(20 * 6.0))
        assert windows[2] == (30.0, pytest.approx(10 * 6.0))

    def test_empty_and_invalid(self):
        assert ThroughputSeries().windowed_tpmc(10) == []
        series = ThroughputSeries()
        series.record(1.0, 1)
        assert series.windowed_tpmc(0) == []

    def test_quiet_windows_report_zero(self):
        series = ThroughputSeries()
        series.record(1.0, 5)
        series.record(35.0, 6)
        windows = series.windowed_tpmc(10.0)
        assert windows[1][1] == 0.0  # nothing committed in (10, 20]
