"""System configuration for a simulated FaCE deployment.

One :class:`SystemConfig` describes everything the paper's experimental
setup section (5.2) fixes: device profiles, DRAM buffer size, flash cache
size and policy, checkpointing, and the CPU cost model.  All sizes are in
4 KB pages.

The paper's reference configuration — 50 GB database, 200 MB DRAM buffer
(0.4 % of the database), 2–14 GB flash cache (4–28 %), 8-disk RAID-0,
MLC/SLC SSDs — is reproduced at reduced scale with the *ratios* preserved;
:func:`scaled_reference_config` builds such a configuration from a database
page count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.storage.profiles import (
    HDD_CHEETAH_15K,
    MLC_SAMSUNG_470,
    DeviceProfile,
)


class CachePolicy(enum.Enum):
    """Which flash-cache strategy the system runs (paper Table 2 + ours)."""

    NONE = "hdd-only"
    #: No flash cache either: the whole database, WAL included, lives on
    #: the SSD (Figure 4's "SSD only").
    SSD_ONLY = "ssd-only"
    FACE = "face"
    FACE_GR = "face+gr"
    FACE_GSC = "face+gsc"
    LC = "lc"
    TAC = "tac"
    EXADATA = "exadata"

    @property
    def uses_flash(self) -> bool:
        return self not in (CachePolicy.NONE, CachePolicy.SSD_ONLY)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system under test."""

    # -- DRAM buffer ----------------------------------------------------------
    buffer_pages: int = 512
    #: DRAM replacement policy: "lru" (default, strict) or "clock"
    #: (PostgreSQL-style clock sweep).
    buffer_policy: str = "lru"


    # -- flash cache ----------------------------------------------------------
    cache_policy: CachePolicy = CachePolicy.FACE_GSC
    cache_pages: int = 4096
    flash_profile: DeviceProfile = MLC_SAMSUNG_470
    #: Metadata entries per persistent segment (paper: 64,000; scaled-down
    #: runs use proportionally smaller segments so that segment flushing and
    #: the two-segment restart scan stay in proportion to the cache size).
    segment_entries: int = 64_000
    #: GR/GSC batch size (pages per flash block; paper suggests 64 or 128).
    scan_depth: int = 64
    #: Section 3.2 ablation switches for the FaCE family (paper defaults).
    face_cache_clean: bool = True
    face_write_through: bool = False

    # -- database storage ---------------------------------------------------------
    disk_profile: DeviceProfile = HDD_CHEETAH_15K
    n_disks: int = 8
    #: Address space reserved for the database (pages); loaders must fit.
    disk_capacity_pages: int = 4_194_304

    # -- write-ahead log -----------------------------------------------------------
    log_profile: DeviceProfile = HDD_CHEETAH_15K
    log_capacity_pages: int = 1_048_576

    # -- CPU cost model ------------------------------------------------------------
    #: Seconds of CPU per committed/aborted transaction (parse, plan, locks).
    cpu_per_tx: float = 500e-6
    #: Seconds of CPU per logical page access (latch, search within page).
    cpu_per_page_access: float = 5e-6

    # -- page-store backend --------------------------------------------------
    #: Where page-image bytes live (see :mod:`repro.storage.registry`):
    #: "memory" (default dict), "sqlite", or "mmap".  Persistent backends
    #: enable out-of-core scales and hard-crash tests; the device model
    #: stays authoritative for timing either way.
    page_store: str = "memory"
    #: Directory for persistent backend files.  Empty -> throwaway temp
    #: files; set to a real directory so that a later process can reopen
    #: the same bytes (``python -m repro crash``).
    page_store_dir: str = ""

    # -- misc ---------------------------------------------------------------
    #: Label used in experiment output; defaults to the policy name.
    label: str = ""

    def __post_init__(self) -> None:
        if self.buffer_pages < 1:
            raise ConfigError("buffer_pages must be >= 1")
        if self.cache_policy.uses_flash and self.cache_pages < 1:
            raise ConfigError("cache_pages must be >= 1 for flash-cache policies")
        if self.n_disks < 1:
            raise ConfigError("n_disks must be >= 1")
        if self.segment_entries < 1:
            raise ConfigError("segment_entries must be >= 1")
        if (
            self.cache_policy in (CachePolicy.FACE_GR, CachePolicy.FACE_GSC)
            and self.cache_pages < 2 * self.scan_depth
        ):
            raise ConfigError(
                f"a {self.cache_pages}-page cache is too small for scan_depth "
                f"{self.scan_depth} (GR/GSC need cache_pages >= "
                f"{2 * self.scan_depth})"
            )
        # Late import: repro.storage never imports repro.core, so this
        # validates the name without creating an import cycle.
        from repro.storage.registry import check_backend

        check_backend(self.page_store)

    @property
    def display_name(self) -> str:
        if self.label:
            return self.label
        # Late import: the policy registry imports this module.
        from repro.flashcache.registry import policy_class

        return policy_class(self.cache_policy).name

    def with_(self, **changes) -> "SystemConfig":
        """Return a modified copy (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)


#: Floors of :func:`scaled_reference_config`: a database smaller than
#: ``floor / fraction`` pages gets the floor, whatever the fraction.
MIN_BUFFER_PAGES = 64
MIN_CACHE_PAGES = 256


def scaled_reference_config(
    db_pages: int,
    cache_fraction: float = 0.12,
    buffer_fraction: float = 0.004,
    policy: CachePolicy = CachePolicy.FACE_GSC,
    **overrides,
) -> SystemConfig:
    """Build a config with the paper's size *ratios* at a reduced scale.

    Parameters
    ----------
    db_pages:
        Total database size in pages (tables + indexes), as reported by the
        workload loader.
    cache_fraction:
        Flash cache as a fraction of the database (paper sweeps 0.04-0.28).
    buffer_fraction:
        DRAM buffer as a fraction of the database (paper: 200 MB / 50 GB
        = 0.004).
    """
    if db_pages < 1:
        raise ConfigError("db_pages must be >= 1")
    buffer_pages = max(MIN_BUFFER_PAGES, int(db_pages * buffer_fraction))
    cache_pages = max(MIN_CACHE_PAGES, int(db_pages * cache_fraction))
    # Scale segments so a cache holds a handful of them, as in the paper
    # (4 GB cache / 64k entries = 16 segments).
    segment_entries = max(64, cache_pages // 16)
    return SystemConfig(
        buffer_pages=buffer_pages,
        cache_policy=policy,
        cache_pages=cache_pages,
        segment_entries=segment_entries,
        disk_capacity_pages=max(db_pages * 2, 1 << 16),
        **overrides,
    )
