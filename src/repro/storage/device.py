"""Base storage-device timing model.

A :class:`Device` does not hold data — it only models *time*.  Every read or
write charges a service time to the device's cumulative busy-time counter and
updates its operation statistics.  Page *contents* live in a
:class:`repro.storage.backing.PageStore`; a :class:`repro.storage.volume.Volume`
pairs the two.

Sequentiality is detected the way a drive's firmware sees it: an access is
sequential when it starts at the block immediately following the previous
access's last block.  Multi-page transfers are charged at bandwidth cost,
which is how the paper's batched (GR/GSC) flash I/O earns its advantage.

``read`` and ``write`` sit under every page the simulator moves, so each is
one flat function (service constants taken from the profile once; a subclass
that prices differently overrides the whole method).  Their arithmetic is
compared bit for bit with a reference in ``tests/test_device_parity.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import OutOfRangeError
from repro.obs import OBS, sanitize
from repro.storage.profiles import DeviceProfile


class IOKind(enum.Enum):
    """Classification of a completed I/O, used for statistics."""

    RANDOM_READ = "random_read"
    RANDOM_WRITE = "random_write"
    SEQ_READ = "seq_read"
    SEQ_WRITE = "seq_write"


@dataclass(slots=True)
class IOStats:
    """Operation and page counters for one device.

    ``*_ops`` count device commands (a 64-page batch write is one op);
    ``*_pages`` count 4 KB pages moved, which is what the paper's Table 4(b)
    "4KB-page I/O operations per second" reports.  :attr:`ops` and
    :attr:`pages` read them back as :class:`IOKind`-keyed mappings.
    """

    random_read_ops: int = 0
    random_write_ops: int = 0
    seq_read_ops: int = 0
    seq_write_ops: int = 0
    random_read_pages: int = 0
    random_write_pages: int = 0
    seq_read_pages: int = 0
    seq_write_pages: int = 0
    busy_time: float = 0.0

    @property
    def ops(self) -> dict[IOKind, int]:
        """Device commands by kind (a fresh mapping; writes do not stick)."""
        return {kind: getattr(self, f"{kind.value}_ops") for kind in IOKind}

    @property
    def pages(self) -> dict[IOKind, int]:
        """Pages moved by kind (a fresh mapping; writes do not stick)."""
        return {kind: getattr(self, f"{kind.value}_pages") for kind in IOKind}

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())

    @property
    def total_pages(self) -> int:
        return self.read_pages + self.write_pages

    @property
    def read_pages(self) -> int:
        return self.random_read_pages + self.seq_read_pages

    @property
    def write_pages(self) -> int:
        return self.random_write_pages + self.seq_write_pages

    def snapshot(self) -> dict[str, float]:
        """Flat dict snapshot, convenient for reports and assertions."""
        out: dict[str, float] = {"busy_time": self.busy_time}
        ops, pages = self.ops, self.pages
        for kind in IOKind:
            out[f"ops_{kind.value}"] = ops[kind]
            out[f"pages_{kind.value}"] = pages[kind]
        return out

    def reset(self) -> None:
        self.__init__()


class Device:
    """A storage device that charges calibrated service times for I/O.

    Parameters
    ----------
    profile:
        Calibrated timing characteristics (see :mod:`repro.storage.profiles`).
    capacity_pages:
        Addressable size in pages.  Defaults to the profile's full capacity;
        experiments typically pass the (much smaller) simulated size.
    """

    #: Metric-namespace component; subclasses override ("ssd", "hdd", ...).
    _OBS_KIND = "device"

    def __init__(self, profile: DeviceProfile, capacity_pages: int | None = None) -> None:
        self.profile = profile
        self.capacity_pages = (
            profile.capacity_pages if capacity_pages is None else int(capacity_pages)
        )
        if self.capacity_pages <= 0:
            raise OutOfRangeError(f"capacity must be positive, got {self.capacity_pages}")
        self.stats = IOStats()
        # The profile's service times, evaluated once (same floats).
        self._random_read_time = profile.random_read_time
        self._random_write_time = profile.random_write_time
        self._seq_read_time = profile.seq_read_time
        self._seq_write_time = profile.seq_write_time
        # Read and write streams are tracked separately: an append-only
        # write stream (mvFIFO's enqueues) stays sequential even when
        # interleaved with random reads, which is how SSDs (and the paper)
        # classify the pattern.
        self._next_read_lba: int | None = None
        self._next_write_lba: int | None = None
        #: Queue-depth-1 mode.  Crash recovery is a single serial thread
        #: (PostgreSQL redo), so during restart random operations cost one
        #: request's *latency* instead of the saturated-throughput figure
        #: that Table 1's Orion measurements (and normal 50-client
        #: operation) reflect.  Devices with internal parallelism (RAID,
        #: SSD) price a serial random read accordingly.
        self.serial_mode = False
        self._obs_handles: dict | None = None

    # -- observability -------------------------------------------------------

    def _obs_make_handles(self) -> dict:
        """Cache per-device metric handles (first observed op only)."""
        prefix = f"storage.{self._OBS_KIND}.{sanitize(self.profile.name)}"
        handles: dict = {
            "read": OBS.histogram(f"{prefix}.read.seconds"),
            "write": OBS.histogram(f"{prefix}.write.seconds"),
        }
        for kind in IOKind:
            handles[kind.value] = OBS.counter(f"{prefix}.ops.{kind.value}")
            handles[kind.value, "pages"] = OBS.counter(f"{prefix}.pages.{kind.value}")
        self._obs_handles = handles
        return handles

    def _obs_record(self, op: str, kind: str, npages: int, service: float) -> None:
        """Record one I/O (``kind``: an :class:`IOKind` value); enabled only."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs_make_handles()
        handles[op].observe(service)
        handles[kind].inc()
        handles[kind, "pages"].inc(npages)

    # -- public I/O API -----------------------------------------------------

    def read(self, lba: int, npages: int = 1) -> float:
        """Charge a read of ``npages`` pages starting at ``lba``.

        Returns the service time charged (seconds).
        """
        if lba < 0 or lba + npages > self.capacity_pages:
            raise self._out_of_range(lba, npages)
        stats = self.stats
        sequential = self._next_read_lba == lba
        self._next_read_lba = lba + npages
        if sequential or npages > 1:
            service = npages * self._seq_read_time
            kind = "seq_read"
            stats.seq_read_ops += 1
            stats.seq_read_pages += npages
        else:
            if self.serial_mode and npages == 1:
                service = self._serial_read_time()
            else:
                service = self._random_read_time
            kind = "random_read"
            stats.random_read_ops += 1
            stats.random_read_pages += npages
        stats.busy_time += service
        if OBS.enabled:
            self._obs_record("read", kind, npages, service)
        return service

    def write(self, lba: int, npages: int = 1) -> float:
        """Charge a write of ``npages`` pages starting at ``lba``.

        Returns the service time charged (seconds).
        """
        if lba < 0 or lba + npages > self.capacity_pages:
            raise self._out_of_range(lba, npages)
        stats = self.stats
        sequential = self._next_write_lba == lba
        self._next_write_lba = lba + npages
        if sequential or npages > 1:
            service = npages * self._seq_write_time
            kind = "seq_write"
            stats.seq_write_ops += 1
            stats.seq_write_pages += npages
        else:
            service = self._random_write_time
            kind = "random_write"
            stats.random_write_ops += 1
            stats.random_write_pages += npages
        stats.busy_time += service
        if OBS.enabled:
            self._obs_record("write", kind, npages, service)
        return service

    # -- helpers -------------------------------------------------------------

    def _serial_read_time(self) -> float:
        """Cost of one random single-page read in :attr:`serial_mode`."""
        return self._random_read_time

    def _out_of_range(self, lba: int, npages: int) -> OutOfRangeError:
        return OutOfRangeError(
            f"access [{lba}, {lba + npages}) outside device of "
            f"{self.capacity_pages} pages ({self.profile.name})"
        )

    @property
    def busy_time(self) -> float:
        """Cumulative seconds this device has spent servicing I/O."""
        return self.stats.busy_time

    def reset_stats(self) -> None:
        """Zero the counters (used after warm-up phases)."""
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.profile.name!r} "
            f"{self.capacity_pages}p busy={self.busy_time:.3f}s>"
        )

