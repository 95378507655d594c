"""DRAM replacement policies: LRU and CLOCK."""

import pytest

from repro.buffer.frame import Frame
from repro.buffer.pool import BufferPool
from repro.buffer.replacement import ClockPolicy
from repro.db.page import Page
from repro.errors import BufferFullError, ConfigError


def frame(pid: int) -> Frame:
    return BufferPool(1).admit(Page(pid))


class TestClockPolicy:
    def test_unreferenced_frame_is_victim(self):
        clock = ClockPolicy()
        for pid in (1, 2, 3):
            clock.insert(frame(pid))
        victims = clock.victims(1)
        assert victims[0].page_id == 1

    def test_referenced_frame_gets_second_chance(self):
        clock = ClockPolicy()
        frames = [frame(pid) for pid in (1, 2, 3)]
        for f in frames:
            clock.insert(f)
        frames[0].referenced = True  # what a pool hit sets
        victims = clock.victims(1)
        assert victims[0].page_id == 2  # frame 1 was spared once
        assert not frames[0].referenced  # chance consumed

    def test_second_sweep_takes_previously_referenced(self):
        clock = ClockPolicy()
        frames = [frame(pid) for pid in (1, 2)]
        for f in frames:
            clock.insert(f)
        for f in frames:
            f.referenced = True
        victims = clock.victims(2)
        assert {v.page_id for v in victims} == {1, 2}

    def test_remove_keeps_ring_consistent(self):
        clock = ClockPolicy()
        frames = [frame(pid) for pid in range(5)]
        for f in frames:
            clock.insert(f)
        clock.remove(2)
        clock.remove(0)
        remaining = {f.page_id for f in clock.frames()}
        assert remaining == {1, 3, 4}
        assert len(clock.victims(3)) == 3

    def test_empty_ring(self):
        clock = ClockPolicy()
        with pytest.raises(BufferFullError):
            clock.victims(1)
        assert clock.frames() == []


class TestFactory:
    def test_known_policies(self):
        # LRU is the pool's own table order; only CLOCK keeps a ring.
        assert BufferPool(2, "lru")._clock is None
        assert isinstance(BufferPool(2, "clock")._clock, ClockPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            BufferPool(2, "arc")


class TestClockBufferPool:
    @pytest.fixture
    def pool(self) -> BufferPool:
        return BufferPool(capacity=3, policy="clock")

    def fill(self, pool, *pids):
        for pid in pids:
            pool.make_room()
            pool.admit(Page(pid))

    def test_hot_page_survives(self, pool):
        self.fill(pool, 1, 2, 3)
        pool.lookup(1)  # sets the reference bit
        victim = pool.make_room()
        assert victim.page_id == 2
        assert 1 in pool

    def test_pull_tail_respects_reference_bits(self, pool):
        self.fill(pool, 1, 2, 3)
        pool.lookup(2)
        pulled = pool.pull_tail(2)
        assert 2 not in {f.page_id for f in pulled}

    def test_stats_and_wipe_behave_like_lru_pool(self, pool):
        self.fill(pool, 1)
        pool.lookup(1)
        pool.lookup(9)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1
        pool.wipe()
        assert len(pool) == 0


class TestEngineUnderClock:
    def test_full_system_runs_and_recovers_with_clock_buffer(self):
        from repro.core.config import CachePolicy
        from repro.recovery.restart import crash_and_restart
        from tests.conftest import kv_dbms_with, kv_read, kv_write

        dbms = kv_dbms_with(CachePolicy.FACE_GSC, buffer_policy="clock")
        for k in range(64):
            kv_write(dbms, k, f"clock-{k}")
        crash_and_restart(dbms)
        for k in range(64):
            assert kv_read(dbms, k) == (k, f"clock-{k}")
