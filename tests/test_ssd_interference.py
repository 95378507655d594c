"""FlashDevice read/write interference and serial (QD1) recovery mode."""

import pytest

from repro.storage.profiles import HDD_CHEETAH_15K, MLC_SAMSUNG_470
from repro.storage.raid import Raid0Array
from repro.storage.ssd import (
    READ_INTERFERENCE_FACTOR,
    SERIAL_LATENCY_MULTIPLIER,
    FlashDevice,
)


@pytest.fixture
def ssd() -> FlashDevice:
    return FlashDevice(MLC_SAMSUNG_470, 1 << 16)


class TestReadInterference:
    def test_pure_reads_are_undisturbed(self, ssd):
        for i in range(100):
            ssd.read((i * 97) % ssd.capacity_pages)
        assert ssd.read_interference == 1.0

    def test_random_writes_raise_read_cost(self, ssd):
        baseline = ssd.read(1)
        ssd.write(10)
        for i in range(64):  # heavy random-write phase
            ssd.write((i * 131) % ssd.capacity_pages)
        disturbed = ssd.read(5000)  # random (non-adjacent) read
        assert disturbed > 1.5 * baseline
        assert ssd.read_interference > 2.0

    def test_sequential_writes_do_not_interfere(self, ssd):
        for i in range(100):
            ssd.write(i)  # append stream
        assert ssd.read_interference == pytest.approx(1.0)

    def test_interference_decays_after_write_phase(self, ssd):
        ssd.write(10)
        for i in range(64):
            ssd.write((i * 131) % ssd.capacity_pages)
        high = ssd.read_interference
        for i in range(300):  # long read-only phase slides the window
            ssd.read((i * 7) % ssd.capacity_pages)
        assert ssd.read_interference < high
        assert ssd.read_interference == pytest.approx(1.0, abs=0.1)

    def test_batch_reads_bypass_interference(self, ssd):
        ssd.write(10)
        for i in range(64):
            ssd.write((i * 131) % ssd.capacity_pages)
        per_page_batch = ssd.read(100, npages=64) / 64
        assert per_page_batch == pytest.approx(
            MLC_SAMSUNG_470.seq_read_time, rel=1e-6
        )

    def test_factor_formula(self, ssd):
        ssd.write(0)
        ssd.write(1000)  # one random write in a 2-op window
        expected = 1.0 + READ_INTERFERENCE_FACTOR * (1 / 2)
        assert ssd.read_interference == pytest.approx(expected)


class TestSerialMode:
    def test_flash_random_read_pays_qd1_latency(self, ssd):
        normal = ssd.read(5)
        ssd.serial_mode = True
        serial = ssd.read(999)
        assert serial == pytest.approx(normal * SERIAL_LATENCY_MULTIPLIER, rel=0.01)

    def test_flash_sequential_read_unaffected(self, ssd):
        ssd.serial_mode = True
        t = ssd.read(100, npages=8)
        assert t == pytest.approx(8 * MLC_SAMSUNG_470.seq_read_time)

    def test_flash_writes_unaffected_by_serial_mode(self, ssd):
        ssd.write(0)
        normal = ssd.write(1)
        ssd.serial_mode = True
        serial = ssd.write(2)
        assert serial == pytest.approx(normal)

    def test_raid_serial_read_costs_single_disk_latency(self):
        raid = Raid0Array(8, HDD_CHEETAH_15K, 1000)
        aggregate = raid.read(5)
        raid.serial_mode = True
        serial = raid.read(900)
        expected = (
            HDD_CHEETAH_15K.random_read_time * Raid0Array.SERIAL_READ_LATENCY_FACTOR
        )
        assert serial == pytest.approx(expected)
        assert serial > 10 * aggregate

    def test_raid_serial_writes_keep_aggregate_throughput(self):
        raid = Raid0Array(8, HDD_CHEETAH_15K, 1000)
        raid.write(0)
        normal = raid.write(500)
        raid.serial_mode = True
        serial = raid.write(700)
        assert serial == pytest.approx(normal)

    def test_recovery_manager_toggles_serial_mode(self):
        from repro.core.config import CachePolicy
        from repro.recovery.restart import crash_and_restart
        from tests.conftest import kv_dbms_with, kv_write

        dbms = kv_dbms_with(CachePolicy.FACE)
        kv_write(dbms, 1, "x")
        crash_and_restart(dbms)
        assert not dbms.disk.device.serial_mode
        assert not dbms.flash.device.serial_mode
        assert not dbms.log.device.serial_mode
