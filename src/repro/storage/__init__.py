"""Storage substrate: calibrated device timing models + non-volatile stores.

The device models are calibrated against Table 1 of the paper (see
:mod:`repro.storage.profiles`); the design rationale is in DESIGN.md §6.
"""

from repro.storage.backing import MemoryPageStore, PageStore
from repro.storage.codec import decode_storable, encode_storable
from repro.storage.device import Device, IOKind, IOStats
from repro.storage.persistent import (
    MmapPageStore,
    PersistentPageStore,
    SqlitePageStore,
)
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import (
    DRAM_TO_FLASH_PRICE_RATIO,
    HDD_CHEETAH_15K,
    MLC_INTEL_X25M,
    MLC_SAMSUNG_470,
    PAGE_SIZE,
    RAID0_8_DISKS,
    SLC_INTEL_X25E,
    TABLE1_PROFILES,
    DeviceProfile,
)
from repro.storage.raid import RAID0_EFFICIENCY, Raid0Array, make_raid0_profile
from repro.storage.registry import (
    available_backends,
    build_page_store,
    make_page_store,
    page_store_class,
)
from repro.storage.ssd import PAGES_PER_BLOCK, FlashDevice
from repro.storage.volume import Volume

__all__ = [
    "DRAM_TO_FLASH_PRICE_RATIO",
    "Device",
    "DeviceProfile",
    "DiskDevice",
    "FlashDevice",
    "HDD_CHEETAH_15K",
    "IOKind",
    "IOStats",
    "MLC_INTEL_X25M",
    "MLC_SAMSUNG_470",
    "MemoryPageStore",
    "MmapPageStore",
    "PAGE_SIZE",
    "PAGES_PER_BLOCK",
    "PageStore",
    "PersistentPageStore",
    "RAID0_8_DISKS",
    "RAID0_EFFICIENCY",
    "Raid0Array",
    "SLC_INTEL_X25E",
    "SqlitePageStore",
    "TABLE1_PROFILES",
    "Volume",
    "available_backends",
    "build_page_store",
    "decode_storable",
    "encode_storable",
    "make_page_store",
    "page_store_class",
]
