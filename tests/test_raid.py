"""RAID-0 model: calibration against Table 1 and scaling behaviour."""

import pytest

from repro.errors import ConfigError
from repro.storage.profiles import HDD_CHEETAH_15K, RAID0_8_DISKS
from repro.storage.raid import RAID0_EFFICIENCY, Raid0Array, make_raid0_profile


def test_eight_disk_profile_reproduces_table1_exactly():
    p = make_raid0_profile(8)
    assert p.random_read_iops == pytest.approx(RAID0_8_DISKS.random_read_iops)
    assert p.random_write_iops == pytest.approx(RAID0_8_DISKS.random_write_iops)
    assert p.seq_read_mbps == pytest.approx(RAID0_8_DISKS.seq_read_mbps)
    assert p.seq_write_mbps == pytest.approx(RAID0_8_DISKS.seq_write_mbps)


def test_single_disk_passthrough():
    assert make_raid0_profile(1) is HDD_CHEETAH_15K


def test_throughput_scales_linearly_with_width():
    p4 = make_raid0_profile(4)
    p16 = make_raid0_profile(16)
    assert p16.random_read_iops == pytest.approx(4 * p4.random_read_iops)


def test_efficiencies_below_unity():
    for eff in RAID0_EFFICIENCY.values():
        assert 0.5 < eff < 1.0


def test_capacity_and_price_scale_linearly():
    p = make_raid0_profile(8)
    assert p.capacity_gb == pytest.approx(8 * HDD_CHEETAH_15K.capacity_gb)
    assert p.price_usd == pytest.approx(8 * HDD_CHEETAH_15K.price_usd)


def test_zero_disks_rejected():
    with pytest.raises(ConfigError):
        make_raid0_profile(0)


def test_array_device_services_io_faster_than_single_disk():
    single = Raid0Array(1, HDD_CHEETAH_15K, 1000)
    array = Raid0Array(8, HDD_CHEETAH_15K, 1000)
    assert array.read(37) < single.read(37)
    assert array.n_disks == 8


def test_wider_array_sweeps_figure5_range():
    """Figure 5 sweeps 4..16 disks; random IOPS must rise monotonically."""
    iops = [make_raid0_profile(n).random_read_iops for n in (4, 8, 12, 16)]
    assert iops == sorted(iops)
    assert iops[-1] > 2.5 * iops[0]
