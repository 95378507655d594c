"""The Zipf sampler and the synthetic key-value (``ycsb``) workload on it."""

import itertools
import random

import pytest

from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.errors import WorkloadError
from repro.workload.registry import make_workload
from repro.tpcc.scale import TINY
from repro.workload.synthetic import ZipfGenerator, _zipf_cdf
from repro.workload.ycsb import KvDatabase, YcsbDriver, _key_order
from tests.conftest import tiny_config


class TestZipf:
    def test_ranks_within_range(self):
        gen = ZipfGenerator(100, 0.99, seed=1)
        draws = [gen.sample() for _ in range(2000)]
        assert min(draws) >= 0
        assert max(draws) < 100

    def test_skew_concentrates_on_low_ranks(self):
        gen = ZipfGenerator(1000, 0.99, seed=1)
        draws = [gen.sample() for _ in range(20_000)]
        top10 = sum(1 for d in draws if d < 10)
        assert top10 / len(draws) > 0.2  # far above the uniform 1%

    def test_zero_exponent_is_uniform(self):
        gen = ZipfGenerator(10, 0.0, seed=1)
        assert all(
            gen.popularity(rank) == pytest.approx(0.1) for rank in range(10)
        )

    def test_popularity_sums_to_one(self):
        gen = ZipfGenerator(50, 1.2, seed=1)
        assert sum(gen.popularity(r) for r in range(50)) == pytest.approx(1.0)

    def test_higher_s_means_more_skew(self):
        mild = ZipfGenerator(100, 0.5, seed=1)
        steep = ZipfGenerator(100, 1.5, seed=1)
        assert steep.popularity(0) > mild.popularity(0)

    def test_determinism(self):
        a = ZipfGenerator(100, 0.99, seed=9)
        b = ZipfGenerator(100, 0.99, seed=9)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, -0.1)


class TestWorkload:
    def make(self, **knobs) -> YcsbDriver:
        dbms = SimulatedDBMS(
            tiny_config(CachePolicy.FACE_GSC, disk_capacity_pages=8192,
                        cache_pages=96, buffer_pages=16)
        )
        return make_workload("ycsb", dbms, seed=3, n_keys=500, **knobs)

    @staticmethod
    def total_versions(dbms: SimulatedDBMS) -> int:
        total = 0
        for key in range(500):
            rid = dbms.index_lookup("synthetic_kv_pk", (key,))
            total += dbms.fetch_row("synthetic_kv", rid)[2]
        return total

    def test_load_populates_all_keys(self):
        workload = self.make()
        for key in (0, 250, 499):
            rid = workload.dbms.index_lookup("synthetic_kv_pk", (key,))
            row = workload.dbms.fetch_row("synthetic_kv", rid)
            assert row[0] == key
            assert row[2] == 0

    def test_run_commits_and_updates(self):
        workload = self.make(update_fraction=1.0, ops_per_tx=4)
        workload.run(100)
        assert workload.stats.executed == 100
        assert workload.dbms.committed == 100
        assert self.total_versions(workload.dbms) == 400  # 100 tx x 4 updates

    def test_read_only_mix_never_dirties(self):
        workload = self.make(update_fraction=0.0)
        workload.run(50)
        assert workload.dbms.cache.stats.dirty_evictions == 0

    def test_skew_drives_cache_hits(self):
        hot = self.make(zipf_s=1.2)
        cold = self.make(zipf_s=0.0)
        for w in (hot, cold):
            w.run(150)
            w.dbms.reset_measurements()
            w.run(300)
        hot_rate = hot.dbms.buffer.stats.hit_rate
        cold_rate = cold.dbms.buffer.stats.hit_rate
        assert hot_rate > cold_rate

    def test_validation(self):
        with pytest.raises(WorkloadError):
            self.make(update_fraction=1.5)
        with pytest.raises(WorkloadError):
            self.make(ops_per_tx=0)
        with pytest.raises(WorkloadError):
            self.make().run(-1)

    def test_crash_safe_like_everything_else(self):
        from repro.recovery.restart import crash_and_restart

        workload = self.make(update_fraction=1.0, ops_per_tx=2)
        workload.run(100)
        crash_and_restart(workload.dbms)
        assert self.total_versions(workload.dbms) == 200


class TestStreamTables:
    """A stream's key permutation and Zipf CDF are built once per process."""

    @staticmethod
    def draws(seed: int, n_keys: int = 5_000) -> list:
        database = KvDatabase(dbms=None, scale=TINY, n_keys=n_keys)
        driver = YcsbDriver(database, seed=seed, zipf_s=0.9, update_fraction=0.5)
        return [(driver._next_key(), driver._rng.random() < 0.5) for _ in range(400)]

    @staticmethod
    def clear() -> None:
        _key_order.cache_clear()
        _zipf_cdf.cache_clear()

    def test_memoised_tables_draw_the_stream_a_fresh_build_draws(self):
        self.clear()
        fresh_5 = self.draws(5)
        self.clear()
        fresh_6 = self.draws(6)
        assert fresh_5 != fresh_6
        for order in ((5, 6, 5, 6), (6, 5, 6, 5)):  # either order, another seed between
            self.clear()
            assert [self.draws(seed) for seed in order] == [
                {5: fresh_5, 6: fresh_6}[seed] for seed in order
            ]
        assert _key_order.cache_info().hits >= 2 and _zipf_cdf.cache_info().hits >= 3

    def test_memoised_tables_equal_the_unmemoised_construction(self):
        rng = random.Random(7 + 1)
        rank_to_key = list(range(5_000))
        rng.shuffle(rank_to_key)
        assert _key_order(5_000, 7) == (tuple(rank_to_key), rng.getstate())
        weights = list(itertools.accumulate((k + 1) ** -0.9 for k in range(5_000)))
        assert _zipf_cdf(5_000, 0.9) == tuple(w / weights[-1] for w in weights)

    def test_shared_tables_are_immutable_and_the_memo_is_bounded(self):
        database = KvDatabase(dbms=None, scale=TINY, n_keys=500)
        driver = YcsbDriver(database, seed=1)
        assert type(driver._rank_to_key) is tuple and type(driver._zipf._cdf) is tuple
        assert _key_order.cache_info().maxsize == _zipf_cdf.cache_info().maxsize == 2
