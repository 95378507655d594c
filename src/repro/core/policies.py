"""Factory wiring a :class:`SystemConfig` to concrete devices and caches.

This is the single place where the config's declarative fields (device
counts, capacities, cache pages) become live storage objects: the database
volume (RAID-0 array or single SSD for the paper's "SSD only" case), the
dedicated log device and the flash volume.  Flash-cache *policy*
construction itself lives in :mod:`repro.flashcache.registry` — the named
catalogue the CLI and ablation axes also resolve through.  Building
everything from configs is what makes cells picklable and parallel runs
reproducible.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.flashcache.metadata import ENTRY_BYTES
from repro.storage.device import Device
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import PAGE_SIZE
from repro.storage.raid import Raid0Array
from repro.storage.registry import build_page_store
from repro.storage.ssd import FlashDevice
from repro.storage.volume import Volume


def build_database_device(config: SystemConfig) -> Device:
    """The device holding the database proper: RAID-0 disks, or an SSD for
    the paper's "SSD only" configuration."""
    if config.ssd_only:
        return FlashDevice(config.flash_profile, config.disk_capacity_pages)
    return Raid0Array(
        config.n_disks, config.disk_profile, config.disk_capacity_pages
    )


def build_log_device(config: SystemConfig) -> Device:
    """Dedicated WAL device (a single disk, standard OLTP practice)."""
    return DiskDevice(config.log_profile, config.log_capacity_pages)


def _metadata_pages_for(config: SystemConfig) -> int:
    """Flash pages reserved beyond the cache region for persistent metadata."""
    segment_pages = max(1, -(-config.segment_entries * ENTRY_BYTES // PAGE_SIZE))
    live_segments = -(-config.cache_pages // config.segment_entries) + 2
    return 1 + segment_pages * live_segments


def build_flash_volume(config: SystemConfig) -> Volume | None:
    """The flash caching device, sized for the cache region + metadata."""
    if not config.cache_policy.uses_flash or config.ssd_only:
        return None
    total = config.cache_pages + _metadata_pages_for(config)
    return Volume(
        FlashDevice(config.flash_profile, total),
        build_page_store(config, "flash", total),
    )
