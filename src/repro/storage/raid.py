"""RAID-0 disk-array model.

The paper stores the database on a RAID-0 array of 15k-RPM disks and sweeps
the array width (Figure 5: 4, 8, 12, 16 drives).  Table 1 gives measured
numbers for the 8-disk array, which lets us *calibrate* striping efficiency
instead of assuming ideal linear scaling:

========================  ==========  ==============  ============
metric                     1 disk      8-disk array    efficiency
========================  ==========  ==============  ============
random read IOPS              409         2,598          0.794
random write IOPS             343         2,502          0.912
sequential read MB/s          156           848          0.679
sequential write MB/s         154           843          0.684
========================  ==========  ==============  ============

``efficiency = measured_8disk / (8 * single_disk)``.  An N-disk array is then
modelled as a single aggregate device with each rate scaled by
``N * efficiency`` — the same efficiencies hold across the modest range of
widths the paper sweeps, and the n=8 case reproduces Table 1 exactly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError
from repro.obs import OBS, sanitize
from repro.storage.device import Device
from repro.storage.profiles import HDD_CHEETAH_15K, RAID0_8_DISKS, DeviceProfile

_CALIBRATION_DISKS = 8

#: Striping efficiencies calibrated from Table 1 (8-disk row / 8x single row).
RAID0_EFFICIENCY = {
    "random_read": RAID0_8_DISKS.random_read_iops
    / (_CALIBRATION_DISKS * HDD_CHEETAH_15K.random_read_iops),
    "random_write": RAID0_8_DISKS.random_write_iops
    / (_CALIBRATION_DISKS * HDD_CHEETAH_15K.random_write_iops),
    "seq_read": RAID0_8_DISKS.seq_read_mbps
    / (_CALIBRATION_DISKS * HDD_CHEETAH_15K.seq_read_mbps),
    "seq_write": RAID0_8_DISKS.seq_write_mbps
    / (_CALIBRATION_DISKS * HDD_CHEETAH_15K.seq_write_mbps),
}


def make_raid0_profile(
    n_disks: int, base: DeviceProfile = HDD_CHEETAH_15K
) -> DeviceProfile:
    """Build the aggregate profile of an ``n_disks``-wide RAID-0 array.

    Rates scale by ``n_disks * efficiency`` with the Table-1-calibrated
    per-metric efficiencies; capacity and price scale linearly.
    """
    if n_disks < 1:
        raise ConfigError(f"RAID-0 needs at least one disk, got {n_disks}")
    if n_disks == 1:
        return base
    return replace(
        base,
        name=f"{n_disks}-disk RAID-0 ({base.name})",
        random_read_iops=base.random_read_iops * n_disks * RAID0_EFFICIENCY["random_read"],
        random_write_iops=base.random_write_iops * n_disks * RAID0_EFFICIENCY["random_write"],
        seq_read_mbps=base.seq_read_mbps * n_disks * RAID0_EFFICIENCY["seq_read"],
        seq_write_mbps=base.seq_write_mbps * n_disks * RAID0_EFFICIENCY["seq_write"],
        capacity_gb=base.capacity_gb * n_disks,
        price_usd=base.price_usd * n_disks,
    )


class Raid0Array(Device):
    """An N-disk RAID-0 array exposed as one aggregate device.

    The simulation charges I/O to the aggregate because, under the paper's 50
    concurrent clients, requests spread evenly over the stripes and the array
    behaves as one resource with N-fold (efficiency-discounted) throughput.
    """

    _OBS_KIND = "raid0"

    def __init__(
        self,
        n_disks: int,
        base: DeviceProfile,
        capacity_pages: int,
    ) -> None:
        super().__init__(make_raid0_profile(n_disks, base), capacity_pages)
        self.n_disks = n_disks
        self.base_profile = base
        self._member_read_latency = (
            base.random_read_time * self.SERIAL_READ_LATENCY_FACTOR
        )
        self._obs_qd1_reads = None

    # A RAID-0 array multiplies *throughput*, not per-request latency: a
    # single serial requester (crash recovery) waits one member disk's
    # access latency per random *read*.  Table 1's single-disk 409 IOPS is
    # itself a saturated-throughput figure; the QD1 latency of a 15k-RPM
    # drive is ~5 ms (average seek + half a rotation), about twice the
    # throughput inverse — hence the factor below.  Writes issued during
    # recovery are asynchronous (OS write-back / background writer) and
    # still enjoy the array's aggregate throughput, as does sequential
    # streaming.
    SERIAL_READ_LATENCY_FACTOR = 2.0

    def _serial_read_time(self) -> float:
        if OBS.enabled:
            # Counts the recovery-path reads that pay member-disk QD1
            # latency instead of array throughput — the Table 6 term.
            counter = self._obs_qd1_reads
            if counter is None:
                counter = OBS.counter(
                    f"storage.raid0.{sanitize(self.profile.name)}.qd1_reads"
                )
                self._obs_qd1_reads = counter
            counter.inc()
        return self._member_read_latency
