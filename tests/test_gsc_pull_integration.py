"""GSC's DRAM LRU-tail pull, end to end through the engine.

The pull path crosses three modules (cache → dbms callback → buffer pool)
and must respect the WAL rule for every pulled dirty frame.  These tests
exercise it through the real engine rather than with a stub callback.
"""

import pytest

from repro.core.config import CachePolicy
from repro.wal.records import UpdateRecord
from tests.conftest import kv_dbms_with, kv_read, kv_write


@pytest.fixture
def dbms():
    # Small cache + small scan depth so replacements (and pulls) happen often.
    return kv_dbms_with(
        CachePolicy.FACE_GSC, cache_pages=32, scan_depth=8, buffer_pages=16
    )


def drive(dbms, rounds=6):
    for round_ in range(rounds):
        for k in range(0, 64, 2):
            kv_write(dbms, k, f"r{round_}-{k}")
        for k in range(64):
            kv_read(dbms, k)


def test_pulls_happen_during_replacement(dbms):
    pulled = []
    original = dbms._pull_frames

    def counting_pull(n):
        frames = original(n)
        pulled.extend(frames)
        return frames

    dbms.cache.set_pull_callback(counting_pull)
    drive(dbms)
    assert pulled, "GSC never pulled from the DRAM LRU tail"
    # Pulled frames are genuinely evicted (no longer resident).
    assert all(dbms.buffer.peek(f.page_id) is not f for f in pulled[-5:])


def test_wal_rule_holds_for_pulled_dirty_frames(dbms):
    drive(dbms)
    # Every dirty page image present in the flash cache must have its
    # update records durable (WAL rule) - including pages that entered via
    # the pull path.  Verify via LSN: flushed_lsn covers every cached LSN.
    cache = dbms.cache
    for position in cache.directory.live_positions():
        meta = cache.directory.meta_at(position)
        assert meta.lsn <= dbms.log.flushed_lsn


def test_engine_consistent_after_pull_heavy_run(dbms):
    drive(dbms)
    from repro.db.verify import verify_all

    report = verify_all(dbms)
    assert report.ok, report.violations


def test_pull_heavy_run_survives_crash(dbms):
    drive(dbms, rounds=4)
    from repro.recovery.restart import crash_and_restart

    crash_and_restart(dbms)
    for k in range(0, 64, 2):
        assert kv_read(dbms, k) == (k, f"r3-{k}")
