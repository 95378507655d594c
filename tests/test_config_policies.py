"""System configuration and the policy/device factory."""

import pytest

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.policies import (
    build_database_device,
    build_flash_volume,
    build_log_device,
)
from repro.errors import ConfigError
from repro.flashcache.exadata import ExadataStyleCache
from repro.flashcache.group import GroupReplacementCache, GroupSecondChanceCache
from repro.flashcache.lc import LazyCleaningCache
from repro.flashcache.mvfifo import MvFifoCache
from repro.flashcache.null import NullFlashCache, SsdOnlyCache
from repro.flashcache.registry import build_cache_from_config
from repro.flashcache.tac import TacCache
from repro.storage.raid import Raid0Array
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume
from tests.conftest import tiny_config


class TestConfig:
    def test_defaults_are_valid(self):
        SystemConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(buffer_pages=0)
        with pytest.raises(ConfigError):
            SystemConfig(cache_pages=0, cache_policy=CachePolicy.FACE)
        with pytest.raises(ConfigError):
            SystemConfig(n_disks=0)
        with pytest.raises(ConfigError):
            SystemConfig(segment_entries=0)

    def test_hdd_only_needs_no_cache_pages(self):
        SystemConfig(cache_policy=CachePolicy.NONE, cache_pages=0)

    def test_display_names(self):
        assert SystemConfig(cache_policy=CachePolicy.LC).display_name == "LC"
        assert SystemConfig(cache_policy=CachePolicy.NONE).display_name == "HDD-only"
        assert SystemConfig(cache_policy=CachePolicy.SSD_ONLY).display_name == "SSD-only"
        assert SystemConfig(label="custom").display_name == "custom"

    def test_with_returns_modified_copy(self):
        base = SystemConfig()
        changed = base.with_(buffer_pages=99)
        assert changed.buffer_pages == 99
        assert base.buffer_pages != 99

    def test_uses_flash_property(self):
        assert not CachePolicy.NONE.uses_flash
        assert not CachePolicy.SSD_ONLY.uses_flash
        assert CachePolicy.FACE_GSC.uses_flash


class TestScaledReference:
    def test_ratios_follow_the_paper(self):
        cfg = scaled_reference_config(db_pages=100_000)
        assert cfg.buffer_pages == 400  # 0.4% of the database
        assert cfg.cache_pages == 12_000  # 12% default
        assert cfg.disk_capacity_pages >= 200_000

    def test_segments_scale_with_cache(self):
        cfg = scaled_reference_config(db_pages=100_000)
        assert cfg.segment_entries == cfg.cache_pages // 16

    def test_minimums_enforced(self):
        cfg = scaled_reference_config(db_pages=1000)
        assert cfg.buffer_pages >= 64
        assert cfg.cache_pages >= 256

    def test_invalid_db_pages(self):
        with pytest.raises(ConfigError):
            scaled_reference_config(0)

    def test_overrides_pass_through(self):
        cfg = scaled_reference_config(10_000, n_disks=16, scan_depth=128)
        assert cfg.n_disks == 16
        assert cfg.scan_depth == 128


class TestFactory:
    POLICY_TYPES = [
        (CachePolicy.NONE, NullFlashCache),
        (CachePolicy.SSD_ONLY, SsdOnlyCache),
        (CachePolicy.FACE, MvFifoCache),
        (CachePolicy.FACE_GR, GroupReplacementCache),
        (CachePolicy.FACE_GSC, GroupSecondChanceCache),
        (CachePolicy.LC, LazyCleaningCache),
        (CachePolicy.TAC, TacCache),
        (CachePolicy.EXADATA, ExadataStyleCache),
    ]

    @pytest.mark.parametrize("policy,cls", POLICY_TYPES)
    def test_policy_maps_to_cache_class(self, policy, cls):
        cfg = tiny_config(policy)
        flash = build_flash_volume(cfg)
        disk = Volume(build_database_device(cfg))
        cache = build_cache_from_config(cfg, flash, disk)
        assert isinstance(cache, cls)

    def test_database_device_is_raid(self):
        cfg = tiny_config(n_disks=4)
        device = build_database_device(cfg)
        assert isinstance(device, Raid0Array)
        assert device.n_disks == 4

    def test_ssd_only_database_on_flash(self):
        cfg = tiny_config(CachePolicy.SSD_ONLY)
        assert isinstance(build_database_device(cfg), FlashDevice)
        assert build_flash_volume(cfg) is None
        disk = Volume(build_database_device(cfg))
        assert isinstance(build_cache_from_config(cfg, None, disk), SsdOnlyCache)

    def test_flash_volume_has_metadata_headroom(self):
        cfg = tiny_config(CachePolicy.FACE)
        flash = build_flash_volume(cfg)
        assert flash.capacity_pages > cfg.cache_pages

    def test_no_flash_volume_for_hdd_only(self):
        assert build_flash_volume(tiny_config(CachePolicy.NONE)) is None

    def test_flash_policy_without_volume_rejected(self):
        cfg = tiny_config(CachePolicy.FACE)
        disk = Volume(build_database_device(cfg))
        with pytest.raises(ConfigError):
            build_cache_from_config(cfg, None, disk)

    def test_log_device_capacity(self):
        cfg = tiny_config()
        assert build_log_device(cfg).capacity_pages == cfg.log_capacity_pages
