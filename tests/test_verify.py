"""Full-system consistency audits (repro.db.verify)."""

import pytest

from repro.core.config import CachePolicy
from repro.db.page import PageImage
from repro.db.verify import verify_all, verify_cache_directory, verify_tier_ordering
from repro.recovery.restart import crash_and_restart
from tests.conftest import kv_dbms_with, kv_read, kv_write

POLICIES = [CachePolicy.FACE, CachePolicy.FACE_GSC, CachePolicy.LC, CachePolicy.NONE]


@pytest.mark.parametrize("policy", POLICIES)
def test_fresh_database_verifies_clean(policy):
    dbms = kv_dbms_with(policy)
    report = verify_all(dbms)
    assert report.ok, report.violations
    assert report.pages_checked > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_busy_database_verifies_clean(policy):
    dbms = kv_dbms_with(policy, buffer_pages=6)
    for round_ in range(3):
        for k in range(0, 64, 3):
            kv_write(dbms, k, f"r{round_}")
        for k in range(64):
            kv_read(dbms, k)
    dbms.checkpoint()
    report = verify_all(dbms)
    assert report.ok, report.violations


@pytest.mark.parametrize("policy", [CachePolicy.FACE, CachePolicy.FACE_GSC])
def test_database_verifies_clean_after_crash_recovery(policy):
    dbms = kv_dbms_with(policy, buffer_pages=6)
    for k in range(0, 64, 2):
        kv_write(dbms, k, "pre")
    dbms.checkpoint()
    for k in range(1, 64, 2):
        kv_write(dbms, k, "post")
    crash_and_restart(dbms)
    report = verify_all(dbms)
    assert report.ok, report.violations


def test_detects_stale_valid_flash_copy():
    """Seed a corruption: a valid flash slot older than disk."""
    dbms = kv_dbms_with(CachePolicy.FACE)
    kv_write(dbms, 0, "newer")
    for k in range(8, 60):  # evict page 0's dirty frame into flash
        kv_read(dbms, k)
    # Corrupt: pretend disk got a newer version behind the cache's back.
    page_id = dbms.index_lookup("kv_pk", (0,))[0]
    dbms.disk.store.put(page_id, PageImage(page_id, 10**9, {}))
    report = verify_tier_ordering(dbms)
    assert not report.ok
    assert any("older than disk" in v for v in report.violations)


def test_detects_directory_slot_mismatch():
    dbms = kv_dbms_with(CachePolicy.FACE)
    for k in range(0, 30):
        kv_write(dbms, k, "x")
    for k in range(8, 60):
        kv_read(dbms, k)
    cache = dbms.cache
    # Corrupt: swap one live slot's metadata to a wrong page id.
    position = next(iter(cache.directory.live_positions()))
    physical = cache.directory.physical(position)
    slot = dbms.flash.peek(physical)
    if slot is not None:
        cache.directory.page_ids[physical] = slot.page_id + 1
        report = verify_cache_directory(dbms)
        assert not report.ok


def test_verify_all_aggregates():
    dbms = kv_dbms_with(CachePolicy.FACE)
    report = verify_all(dbms)
    assert report.pages_checked >= dbms.db_pages
