"""Device profiles must match the paper's Table 1 exactly."""

import pytest

from repro.storage.profiles import (
    DRAM_TO_FLASH_PRICE_RATIO,
    HDD_CHEETAH_15K,
    MLC_INTEL_X25M,
    MLC_SAMSUNG_470,
    PAGE_SIZE,
    RAID0_8_DISKS,
    SLC_INTEL_X25E,
    TABLE1_PROFILES,
)


def test_page_size_matches_postgresql_setup():
    assert PAGE_SIZE == 4096  # Section 5.2: PostgreSQL page size 4 KB


def test_table1_contains_all_five_rows():
    assert len(TABLE1_PROFILES) == 5
    names = {p.name for p in TABLE1_PROFILES.values()}
    assert len(names) == 5


def test_samsung470_numbers_match_table1():
    p = MLC_SAMSUNG_470
    assert p.random_read_iops == 28_495
    assert p.random_write_iops == 6_314
    assert p.seq_read_mbps == pytest.approx(251.33)
    assert p.seq_write_mbps == pytest.approx(242.80)
    assert p.capacity_gb == 256
    assert p.price_usd == 450


def test_price_per_gb_matches_table1_parentheses():
    # Table 1 rounds to two decimals.
    assert MLC_SAMSUNG_470.price_per_gb == pytest.approx(1.78, abs=0.03)
    assert MLC_INTEL_X25M.price_per_gb == pytest.approx(2.25, abs=0.01)
    assert SLC_INTEL_X25E.price_per_gb == pytest.approx(13.75, abs=0.01)
    assert HDD_CHEETAH_15K.price_per_gb == pytest.approx(1.63, abs=0.02)
    assert RAID0_8_DISKS.price_per_gb == pytest.approx(1.64, abs=0.01)


def test_random_read_time_is_iops_reciprocal():
    assert MLC_SAMSUNG_470.random_read_time == pytest.approx(1 / 28_495)
    assert HDD_CHEETAH_15K.random_write_time == pytest.approx(1 / 343)


def test_sequential_time_is_bandwidth_cost():
    expected = PAGE_SIZE / (242.80 * 1e6)
    assert MLC_SAMSUNG_470.seq_write_time == pytest.approx(expected)


def test_random_write_penalty_is_order_of_magnitude_on_flash():
    """Section 2.1: random writes are 10-13% of sequential write bandwidth."""
    for profile in (MLC_SAMSUNG_470, SLC_INTEL_X25E, MLC_INTEL_X25M):
        assert 7 <= profile.random_write_time / profile.seq_write_time <= 15


def test_disk_has_no_meaningful_write_penalty():
    """Table 1: disk random/sequential gap is positional, not structural —
    the measured single-op costs differ by far more than flash's 10x."""
    # Seeks dominate.
    assert HDD_CHEETAH_15K.random_write_time / HDD_CHEETAH_15K.seq_write_time > 50


def test_flash_random_read_much_faster_than_disk():
    """Section 2.1: replace random disk I/O with random flash reads."""
    ratio = HDD_CHEETAH_15K.random_read_time / MLC_SAMSUNG_470.random_read_time
    assert ratio > 50


def test_dram_flash_price_ratio_matches_section_2_2():
    assert DRAM_TO_FLASH_PRICE_RATIO == 10.0
