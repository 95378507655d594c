"""Remaining storage edge cases: batch wraps, profile math, IOStats."""

import pytest

from repro.storage.device import Device
from repro.storage.profiles import MLC_SAMSUNG_470, DeviceProfile
from repro.storage.ssd import PAGES_PER_BLOCK, SPREAD_WINDOW, FlashDevice


class TestBatchBoundaries:
    def test_batch_exactly_at_device_end(self):
        dev = Device(MLC_SAMSUNG_470, 100)
        dev.read(90, 10)  # [90, 100): legal
        assert dev.stats.seq_read_pages == 10

    def test_batch_one_past_end_rejected(self):
        from repro.errors import OutOfRangeError

        dev = Device(MLC_SAMSUNG_470, 100)
        with pytest.raises(OutOfRangeError):
            dev.read(91, 10)

    def test_back_to_back_batches_chain_sequentially(self):
        dev = Device(MLC_SAMSUNG_470, 1000)
        dev.write(0, 64)
        t = dev.write(64, 64)  # continues the stream
        assert t == pytest.approx(64 * MLC_SAMSUNG_470.seq_write_time)
        assert dev.stats.seq_write_ops == 2


class TestProfileMath:
    def test_custom_profile_roundtrip(self):
        profile = DeviceProfile(
            name="toy", random_read_iops=1000, random_write_iops=500,
            seq_read_mbps=100, seq_write_mbps=50, capacity_gb=1, price_usd=10,
        )
        assert profile.random_read_time == pytest.approx(1e-3)
        assert profile.random_write_time / profile.seq_write_time == pytest.approx(
            (1 / 500) / (4096 / 50e6)
        )


class TestSpreadWindowInternals:
    def test_window_eviction_keeps_counts_consistent(self):
        ssd = FlashDevice(MLC_SAMSUNG_470, 4 * SPREAD_WINDOW * PAGES_PER_BLOCK)
        ssd.write(0)
        # Far more random writes than the window holds.
        for i in range(3 * SPREAD_WINDOW):
            ssd.write((i * 7919) % ssd.capacity_pages)
        tracked = sum(ssd._recent_block_counts.values())
        assert tracked == len(ssd._recent_random_blocks) == SPREAD_WINDOW
        assert 0.0 < ssd.write_spread <= 1.0

    def test_single_block_device(self):
        ssd = FlashDevice(MLC_SAMSUNG_470, PAGES_PER_BLOCK // 2)
        ssd.write(0)
        ssd.write(5)  # random within the only block
        assert ssd.write_spread == 1.0  # 1 distinct block / min(1, window)


class TestIOStatsAccounting:
    def test_total_ops_and_pages(self):
        dev = Device(MLC_SAMSUNG_470, 100)
        dev.read(1)
        dev.read(2)
        dev.write(50, 4)
        stats = dev.stats
        ops = stats.random_read_ops + stats.seq_read_ops
        assert ops + stats.random_write_ops + stats.seq_write_ops == 3
        assert dev.stats.total_pages == 6
        assert dev.stats.read_pages == 2
        assert dev.stats.write_pages == 4
