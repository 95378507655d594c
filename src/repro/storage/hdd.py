"""Magnetic disk device model.

A single enterprise disk is fully described by the base class: random ops at
``1/IOPS`` and sequential streaming at bandwidth, which is how Table 1
characterises the Cheetah 15K.6.  The class exists as a named type so that
configuration code reads naturally (``DiskDevice(HDD_CHEETAH_15K, pages)``)
and so disk-specific behaviour has one obvious home.
"""

from __future__ import annotations

from repro.storage.device import Device
from repro.storage.profiles import DeviceProfile


class DiskDevice(Device):
    """One spinning disk with Table 1 (single-disk) characteristics."""

    _OBS_KIND = "hdd"

    def __init__(self, profile: DeviceProfile, capacity_pages: int) -> None:
        super().__init__(profile, capacity_pages)
