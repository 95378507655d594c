"""Calibrated device profiles.

The timing model of every simulated device is derived from the measured
numbers the paper reports in Table 1 (Orion calibration tool, steady state):

=============  ============  ============  ==========  ==========
Device         4K rand read  4K rand write seq read    seq write
               (IOPS)        (IOPS)        (MB/s)      (MB/s)
=============  ============  ============  ==========  ==========
MLC SSD (Samsung 470)  28,495   6,314        251.33      242.80
MLC SSD (Intel X25-M)  35,601   2,547        258.70       80.81
SLC SSD (Intel X25-E)  38,427   5,057        259.2       195.25
Single disk (Cheetah)     409     343        156         154
8-disk RAID-0           2,598   2,502        848         843
=============  ============  ============  ==========  ==========

A :class:`DeviceProfile` converts these to per-operation service times:

* random 4 KB op  ->  ``1 / IOPS`` seconds,
* sequential transfer of *n* pages  ->  ``n * page_size / bandwidth``.

The IOPS figures already include the device's internal parallelism at the
queue depths the paper used, so charging ``1/IOPS`` per op to a single
busy-time accumulator reproduces the device's saturated throughput, which is
what the paper's bottleneck analysis (Section 5.3) relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Page size used throughout the reproduction (PostgreSQL used 4 KB pages).
PAGE_SIZE = 4096

_MB = 1_000_000


@dataclass(frozen=True)
class DeviceProfile:
    """Timing characteristics of one storage device.

    Attributes mirror Table 1 of the paper.  All service-time math lives in
    the properties so that profiles stay declarative and hand-checkable
    against the published table.
    """

    name: str
    random_read_iops: float
    random_write_iops: float
    seq_read_mbps: float
    seq_write_mbps: float
    capacity_gb: float
    price_usd: float
    page_size: int = PAGE_SIZE

    @property
    def random_read_time(self) -> float:
        """Service time (s) for one random page read."""
        return 1.0 / self.random_read_iops

    @property
    def random_write_time(self) -> float:
        """Service time (s) for one random page write."""
        return 1.0 / self.random_write_iops

    @property
    def seq_read_time(self) -> float:
        """Service time (s) to stream one page at sequential-read bandwidth."""
        return self.page_size / (self.seq_read_mbps * _MB)

    @property
    def seq_write_time(self) -> float:
        """Service time (s) to stream one page at sequential-write bandwidth."""
        return self.page_size / (self.seq_write_mbps * _MB)

    @property
    def price_per_gb(self) -> float:
        """$/GB, the figure the paper's cost-effectiveness argument uses."""
        return self.price_usd / self.capacity_gb


#: Samsung 470 Series 256 GB — the paper's primary (MLC) caching device.
MLC_SAMSUNG_470 = DeviceProfile(
    name="MLC SSD (Samsung 470 256GB)",
    random_read_iops=28_495,
    random_write_iops=6_314,
    seq_read_mbps=251.33,
    seq_write_mbps=242.80,
    capacity_gb=256,
    price_usd=450,
)

#: Intel X25-M G2 80 GB — the second MLC device in Table 1.
MLC_INTEL_X25M = DeviceProfile(
    name="MLC SSD (Intel X25-M G2 80GB)",
    random_read_iops=35_601,
    random_write_iops=2_547,
    seq_read_mbps=258.70,
    seq_write_mbps=80.81,
    capacity_gb=80,
    price_usd=180,
)

#: Intel X25-E 32 GB — the paper's SLC caching device.
SLC_INTEL_X25E = DeviceProfile(
    name="SLC SSD (Intel X25-E 32GB)",
    random_read_iops=38_427,
    random_write_iops=5_057,
    seq_read_mbps=259.2,
    seq_write_mbps=195.25,
    capacity_gb=32,
    price_usd=440,
)

#: Seagate Cheetah 15K.6 — one enterprise 15k-RPM SAS drive.
HDD_CHEETAH_15K = DeviceProfile(
    name="HDD (Seagate Cheetah 15K.6 146.8GB)",
    random_read_iops=409,
    random_write_iops=343,
    seq_read_mbps=156,
    seq_write_mbps=154,
    capacity_gb=146.8,
    price_usd=240,
)

#: The paper's 8-disk RAID-0 array measured as one unit (Table 1, row 5).
RAID0_8_DISKS = DeviceProfile(
    name="8-disk RAID-0 (Cheetah 15K.6)",
    random_read_iops=2_598,
    random_write_iops=2_502,
    seq_read_mbps=848,
    seq_write_mbps=843,
    capacity_gb=1_170,
    price_usd=1_920,
)

#: All Table 1 rows keyed by a short name, measured by :func:`measure_profile`.
TABLE1_PROFILES: dict[str, DeviceProfile] = {
    "mlc_samsung_470": MLC_SAMSUNG_470,
    "mlc_intel_x25m": MLC_INTEL_X25M,
    "slc_intel_x25e": SLC_INTEL_X25E,
    "hdd_cheetah_15k": HDD_CHEETAH_15K,
    "raid0_8_disks": RAID0_8_DISKS,
}

#: DRAM-to-MLC-flash price ratio assumed by the paper's Table 5 experiment.
DRAM_TO_FLASH_PRICE_RATIO = 10.0


def measure_profile(profile: DeviceProfile, ops: int = 2000) -> dict[str, float]:
    """Measure ``profile``'s simulated device the way Orion measured the
    real one for Table 1: ``ops`` random 4 KB reads, then as many random
    writes spread over the device (reported as IOPS), then one 4,096-page
    sequential read and write (reported as MB/s), each under the name of
    the profile field it must reproduce.  The operations are seeded, so
    the figures are the same on every call — the ``paper`` record gates
    them against the profile, ``repro devices`` prints them.
    """
    # The device models import this module, so they are imported here.
    from repro.storage.hdd import DiskDevice
    from repro.storage.raid import Raid0Array
    from repro.storage.ssd import FlashDevice

    capacity = 1 << 20
    if "SSD" in profile.name:
        device = FlashDevice(profile, capacity)
    elif "RAID" in profile.name:
        device = Raid0Array(8, HDD_CHEETAH_15K, capacity)
    else:
        device = DiskDevice(profile, capacity)
    rng = random.Random(0)
    out = {}
    for name, io in (("random_read_iops", device.read), ("random_write_iops", device.write)):
        device.reset_stats()
        for _ in range(ops):
            io(rng.randrange(0, device.capacity_pages - 1))
        out[name] = ops / device.busy_time
    seq_pages = 4096
    for name, io in (("seq_read_mbps", device.read), ("seq_write_mbps", device.write)):
        device.reset_stats()
        io(0, seq_pages)
        out[name] = seq_pages * profile.page_size / device.busy_time / _MB
    return out
