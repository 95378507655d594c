"""Flash SSD device model.

Extends the base :class:`~repro.storage.device.Device` with three
flash-specific behaviours that drive the paper's results.  Pure workloads —
all-sequential, or all-random over the whole device — reproduce the Table 1
calibration numbers exactly (verified by ``bench_table1_devices``); the
flash-specific terms only engage for the *mixed* and *clustered* patterns
where real SSDs deviate from their datasheet corners:

* **Random-write spread.**  Section 5.3 observes that "the randomness
  becomes higher as the data region of writes is extended": an FTL absorbs
  a random-write burst confined to a few blocks at near-sequential cost
  (pages coalesce into whole-block writes before garbage collection), but
  a scattered stream pays the calibrated random-write cost.  We track the
  blocks touched by the most recent random writes; the per-write cost
  interpolates from sequential to random cost as the distinct-block count
  approaches the window.

* **Batch transfers at bandwidth.**  Multi-page transfers — the I/O shape
  of Group Replacement / Group Second Chance — are charged at sequential
  bandwidth, exploiting the internal parallelism of modern SSDs (Chen,
  Lee & Zhang, HPCA 2011 — reference [5] of the paper).

* **Read/write interference.**  The same HPCA study (and every mixed-load
  SSD benchmark since) shows random *reads slow down several-fold while
  random writes are in flight*: reads queue behind program/erase and GC
  operations.  Reads are charged a multiplier that grows with the fraction
  of recent operations that were random writes.  An append-only writer
  (FaCE) keeps this near 1; a device absorbing in-place cache writes (LC)
  or hosting a whole read-write database (the paper's "SSD-only"
  configuration) pays it in full — which is precisely why a disk-resident
  database with a small FaCE cache can beat a database stored entirely on
  flash (the paper's headline result).
"""

from __future__ import annotations

from collections import deque

from repro.obs import OBS, sanitize
from repro.storage.device import Device
from repro.storage.profiles import DeviceProfile

#: Logical pages per FTL tracking block (≈ one 256 KB flash block of 64 pages).
PAGES_PER_BLOCK = 64

#: Random writes remembered by the spread tracker.
SPREAD_WINDOW = 256

#: Recent operations remembered by the interference tracker.
INTERFERENCE_WINDOW = 128

#: Read-cost multiplier at 100 % recent random writes.  Calibrated to the
#: several-fold read slowdown measured on MLC devices under mixed random
#: load (Chen et al., HPCA 2011, report up to ~5-8x for consumer MLC):
#: 20 % writes → ~2.3x reads, 50 % → ~4.3x.
READ_INTERFERENCE_FACTOR = 6.5

#: Queue-depth-1 multiplier for random ops: the Table 1 IOPS figures rely
#: on the SSD's internal parallelism at deep queues; a serial requester
#: (crash recovery) observes single-request latency, ~4x the saturated
#: per-op figure (~140 us QD1 reads on the Samsung 470 class).
SERIAL_LATENCY_MULTIPLIER = 4.0


class FlashDevice(Device):
    """An SSD with spread-dependent writes and interference-dependent reads.

    ``read`` / ``write`` price the op against the tracker state *before* it,
    record it, then feed the trackers.  Spread and interference are the
    device's physical condition: ``reset_stats`` leaves them alone.
    """

    _OBS_KIND = "ssd"

    def __init__(self, profile: DeviceProfile, capacity_pages: int | None = None) -> None:
        super().__init__(profile, capacity_pages)
        self._nblocks = max(1, self.capacity_pages // PAGES_PER_BLOCK)
        self._spread_denominator = min(SPREAD_WINDOW, self._nblocks)
        self._recent_random_blocks: deque[int] = deque(maxlen=SPREAD_WINDOW)
        self._recent_block_counts: dict[int, int] = {}
        # Recent op kinds: True entries are random writes.
        self._recent_ops: deque[bool] = deque(maxlen=INTERFERENCE_WINDOW)
        self._recent_random_write_ops = 0
        self._obs_ssd_gauges: tuple | None = None

    def _obs_record(self, op, kind, npages, service) -> None:
        super()._obs_record(op, kind, npages, service)
        # FTL-state gauges: the two signals that explain why identical page
        # counts cost FaCE (append-only) and LC (in-place) different times.
        gauges = self._obs_ssd_gauges
        if gauges is None:
            prefix = f"storage.ssd.{sanitize(self.profile.name)}"
            gauges = (
                OBS.gauge(f"{prefix}.write_spread"),
                OBS.gauge(f"{prefix}.read_interference"),
            )
            self._obs_ssd_gauges = gauges
        gauges[0].set(self.write_spread)
        gauges[1].set(self.read_interference)

    # -- spread model (random writes) ---------------------------------------

    @property
    def write_spread(self) -> float:
        """Scatter of the recent random-write stream, 0 (narrow) .. 1 (wide).

        Distinct blocks among the last :data:`SPREAD_WINDOW` random writes,
        normalised by the window (or the whole device, if smaller).
        """
        return min(1.0, len(self._recent_block_counts) / self._spread_denominator)

    def _note_random_write(self, lba: int) -> None:
        block = (lba // PAGES_PER_BLOCK) % self._nblocks
        if len(self._recent_random_blocks) == self._recent_random_blocks.maxlen:
            oldest = self._recent_random_blocks[0]
            remaining = self._recent_block_counts[oldest] - 1
            if remaining:
                self._recent_block_counts[oldest] = remaining
            else:
                del self._recent_block_counts[oldest]
        self._recent_random_blocks.append(block)
        self._recent_block_counts[block] = self._recent_block_counts.get(block, 0) + 1

    # -- interference model (reads among writes) --------------------------------

    @property
    def read_interference(self) -> float:
        """Current read-cost multiplier (1 = undisturbed)."""
        if not self._recent_ops:
            return 1.0
        write_fraction = self._recent_random_write_ops / len(self._recent_ops)
        return 1.0 + READ_INTERFERENCE_FACTOR * write_fraction

    # -- public I/O ------------------------------------------------------------

    def read(self, lba: int, npages: int = 1) -> float:
        if lba < 0 or lba + npages > self.capacity_pages:
            raise self._out_of_range(lba, npages)
        stats = self.stats
        recent = self._recent_ops
        sequential = self._next_read_lba == lba
        self._next_read_lba = lba + npages
        if sequential or npages > 1:
            # Large transfers stream past the write queue.
            service = npages * self._seq_read_time
            kind = "seq_read"
            stats.seq_read_ops += 1
            stats.seq_read_pages += npages
        else:
            # ``read_interference``, written out (same operations, same order).
            if recent:
                write_fraction = self._recent_random_write_ops / len(recent)
                interference = 1.0 + READ_INTERFERENCE_FACTOR * write_fraction
            else:
                interference = 1.0
            service = self._random_read_time * interference
            if self.serial_mode:
                service *= SERIAL_LATENCY_MULTIPLIER
            kind = "random_read"
            stats.random_read_ops += 1
            stats.random_read_pages += npages
        stats.busy_time += service
        if OBS.enabled:
            self._obs_record("read", kind, npages, service)
        # Interference tracker: a read pushes one non-write into the window.
        if len(recent) == INTERFERENCE_WINDOW and recent[0]:
            self._recent_random_write_ops -= 1
        recent.append(False)
        return service

    def write(self, lba: int, npages: int = 1) -> float:
        if lba < 0 or lba + npages > self.capacity_pages:
            raise self._out_of_range(lba, npages)
        stats = self.stats
        cursor = self._next_write_lba
        self._next_write_lba = lba + npages
        if cursor == lba or npages > 1:
            service = npages * self._seq_write_time
            kind = "seq_write"
            stats.seq_write_ops += 1
            stats.seq_write_pages += npages
        else:
            # Writes are asynchronous even during serial recovery (they
            # queue in the device; redo does not wait on them): no QD1 penalty.
            seq = self._seq_write_time
            spread = min(1.0, len(self._recent_block_counts) / self._spread_denominator)
            service = seq + spread * (self._random_write_time - seq)
            kind = "random_write"
            stats.random_write_ops += 1
            stats.random_write_pages += npages
        stats.busy_time += service
        if OBS.enabled:
            self._obs_record("write", kind, npages, service)
        # The first-ever write carries no evidence of randomness; only a
        # mismatch against an established write cursor counts.
        random_evidence = cursor is not None and cursor != lba and npages == 1
        if random_evidence:
            self._note_random_write(lba)
        recent = self._recent_ops
        if len(recent) == INTERFERENCE_WINDOW and recent[0]:
            self._recent_random_write_ops -= 1
        recent.append(random_evidence)
        if random_evidence:
            self._recent_random_write_ops += 1
        return service
