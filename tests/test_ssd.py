"""FlashDevice: the write-spread penalty and batch behaviour."""

import pytest

from repro.storage.profiles import MLC_SAMSUNG_470
from repro.storage.ssd import PAGES_PER_BLOCK, FlashDevice


@pytest.fixture
def ssd() -> FlashDevice:
    return FlashDevice(MLC_SAMSUNG_470, capacity_pages=64 * PAGES_PER_BLOCK)


def test_append_only_writes_cost_sequential(ssd):
    ssd.write(0)
    t = ssd.write(1)
    assert t == pytest.approx(MLC_SAMSUNG_470.seq_write_time)
    assert ssd.write_spread == 0.0


def test_narrow_random_writes_are_cheap(ssd):
    """A random write burst confined to one block barely widens the spread,
    so the FTL absorbs it near sequential cost."""
    ssd.write(5)
    t = ssd.write(3)  # random (backwards) but same block
    assert t < 2 * MLC_SAMSUNG_470.seq_write_time + 1e-9


def test_wide_random_writes_approach_calibrated_cost(ssd):
    # Touch every block (twice, so the unnoted first write doesn't matter).
    for _ in range(2):
        for block in range(64):
            ssd.write(block * PAGES_PER_BLOCK + (block * 7) % PAGES_PER_BLOCK)
    assert ssd.write_spread == pytest.approx(1.0)
    t = ssd.write(17)
    assert t == pytest.approx(MLC_SAMSUNG_470.random_write_time, rel=0.05)


def test_spread_interpolates_between_seq_and_random(ssd):
    for block in range(32):  # half the blocks
        ssd.write(block * PAGES_PER_BLOCK)
    spread = ssd.write_spread
    assert 0.4 < spread < 0.6
    seq = MLC_SAMSUNG_470.seq_write_time
    rand = MLC_SAMSUNG_470.random_write_time
    t = ssd.write(10 * PAGES_PER_BLOCK + 5)
    assert t == pytest.approx(seq + spread * (rand - seq), rel=1e-6)


def test_batch_writes_never_pay_random_cost(ssd):
    for block in range(64):
        ssd.write(block * PAGES_PER_BLOCK)  # saturate spread
    t = ssd.write(999, npages=PAGES_PER_BLOCK)
    assert t == pytest.approx(PAGES_PER_BLOCK * MLC_SAMSUNG_470.seq_write_time)
    assert ssd.stats.seq_write_ops >= 1


def test_batch_writes_do_not_widen_spread(ssd):
    before = ssd.write_spread
    ssd.write(100, npages=16)
    assert ssd.write_spread == before


def test_reads_do_not_affect_spread(ssd):
    ssd.write(0)
    ssd.write(1)
    for i in range(50):
        ssd.read((i * 37) % ssd.capacity_pages)
    assert ssd.write_spread == 0.0


def test_reset_stats_keeps_physical_spread(ssd):
    for block in range(64):
        ssd.write(block * PAGES_PER_BLOCK)
    spread = ssd.write_spread
    ssd.reset_stats()
    assert ssd.busy_time == 0.0
    assert ssd.write_spread == spread  # FTL state is physical, not a counter


def test_spread_window_recycles_old_blocks():
    ssd = FlashDevice(MLC_SAMSUNG_470, capacity_pages=4096 * PAGES_PER_BLOCK)
    # Phase 1: wide random writes.
    for i in range(2048):
        ssd.write((i * 97) % ssd.capacity_pages)
    wide = ssd.write_spread
    # Phase 2: long narrow-phase; the sliding window should forget phase 1.
    for i in range(10_000):
        ssd.write((i * 3) % PAGES_PER_BLOCK)
    assert ssd.write_spread < wide
