"""Base device timing model: classification, charging, statistics."""

import pytest

from repro.errors import OutOfRangeError
from repro.storage.device import Device, IOStats
from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470


@pytest.fixture
def dev() -> Device:
    return Device(MLC_SAMSUNG_470, capacity_pages=1000)


def test_first_access_is_random(dev):
    dev.read(10)
    assert dev.stats.random_read_ops == 1


def test_contiguous_reads_become_sequential(dev):
    dev.read(10)
    dev.read(11)
    dev.read(12)
    assert dev.stats.seq_read_ops == 2
    assert dev.stats.random_read_ops == 1


def test_jump_breaks_read_sequentiality(dev):
    dev.read(10)
    dev.read(11)
    dev.read(500)
    assert dev.stats.random_read_ops == 2


def test_read_and_write_streams_tracked_independently(dev):
    """mvFIFO's append stream must stay sequential despite interleaved
    random reads (the whole point of FIFO flash management)."""
    dev.write(0)
    for i in range(1, 5):
        dev.read(700 + 13 * i)  # random reads elsewhere
        dev.write(i)  # appends continue
    assert dev.stats.seq_write_ops == 4
    assert dev.stats.random_write_ops == 1


def test_service_times_match_profile(dev):
    t = dev.read(42)
    assert t == pytest.approx(MLC_SAMSUNG_470.random_read_time)
    t = dev.read(43)
    assert t == pytest.approx(MLC_SAMSUNG_470.seq_read_time)


def test_multipage_charged_at_bandwidth(dev):
    t = dev.read(100, npages=64)
    assert t == pytest.approx(64 * MLC_SAMSUNG_470.seq_read_time)
    assert dev.stats.seq_read_pages == 64


def test_busy_time_accumulates(dev):
    total = dev.read(1) + dev.write(500) + dev.read(600, 8)
    assert dev.busy_time == pytest.approx(total)


def test_out_of_range_rejected(dev):
    with pytest.raises(OutOfRangeError):
        dev.read(1000)
    with pytest.raises(OutOfRangeError):
        dev.write(999, npages=2)
    with pytest.raises(OutOfRangeError):
        dev.read(-1)


def test_zero_capacity_rejected():
    with pytest.raises(OutOfRangeError):
        Device(MLC_SAMSUNG_470, capacity_pages=0)


def test_reset_stats_zeroes_counters(dev):
    dev.read(1)
    dev.write(2)
    dev.reset_stats()
    assert dev.busy_time == 0.0
    assert dev.stats == IOStats()


def test_stats_snapshot_and_properties(dev):
    dev.read(1)
    dev.write(500)
    dev.write(501)
    assert dev.stats.random_read_ops == 1
    assert dev.stats.random_write_ops == 1
    assert dev.stats.seq_write_ops == 1
    assert dev.stats.read_pages == 1
    assert dev.stats.write_pages == 2


def test_disk_random_ops_much_slower_than_flash():
    disk = Device(HDD_CHEETAH_15K, 1000)
    flash = Device(MLC_SAMSUNG_470, 1000)
    assert disk.read(3) > 50 * flash.read(3)
