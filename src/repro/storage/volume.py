"""Volume: a device's timing model paired with its persistent contents.

All data-path code in the reproduction talks to volumes, so every logical
page access is charged to exactly one device *and* lands in exactly one
non-volatile store — keeping the timing ledger and the durability semantics
impossible to desynchronise.

A timed access is one device charge plus one store operation: for the
in-process backend a dict operation on the store's own slot table
(:meth:`PageStore.direct_slots`); otherwise — or for an empty or
out-of-range slot, or with observability on — the store's checked ``get`` /
``put`` / ``peek``, which own the errors and the counters.  A batch is one
store call too (``put_many`` / ``peek_many``), while the device is charged
exactly as before: once per batch transfer, or once per page, in order,
for scattered pages (:meth:`Volume.write_pages`).
"""

from __future__ import annotations

from copy import deepcopy
from typing import Any, Sequence

from repro.errors import OutOfRangeError
from repro.obs import OBS
from repro.storage.backing import MemoryPageStore, PageStore
from repro.storage.device import Device


class Volume:
    """Pairs a :class:`Device` (time) with a :class:`PageStore` (contents)."""

    def __init__(self, device: Device, store: PageStore | None = None) -> None:
        self.device = device
        self.store = store if store is not None else MemoryPageStore(device.capacity_pages)
        if self.store.capacity_pages > device.capacity_pages:
            raise OutOfRangeError(
                f"store ({self.store.capacity_pages}p) larger than device "
                f"({device.capacity_pages}p)"
            )
        # The store's live slot table, and the LBAs [0, limit) it may be
        # worked on directly: none, for a backend that is not a dict.
        slots = self.store.direct_slots()
        self._slots: dict[int, Any] = {} if slots is None else slots
        self._direct_limit = 0 if slots is None else self.store.capacity_pages

    def __deepcopy__(self, memo: dict) -> "Volume":
        # Built anew over the cloned device and store, so ``_slots`` is the
        # cloned store's live table, never a copy of the original's.
        return Volume(deepcopy(self.device, memo), deepcopy(self.store, memo))

    # -- timed access ---------------------------------------------------------

    def read_page(self, lba: int) -> Any:
        """Read one page image, charging the device."""
        self.device.read(lba, 1)
        # A stored image implies lba is in range (and the backend a dict).
        image = None if OBS.enabled else self._slots.get(lba)
        return image if image is not None else self.store.get(lba)

    def write_page(self, lba: int, image: Any) -> None:
        """Write one page image, charging the device."""
        self.device.write(lba, 1)
        if 0 <= lba < self._direct_limit and not OBS.enabled:
            self._slots[lba] = image
        else:
            self.store.put(lba, image)

    def read_batch(self, lba: int, npages: int) -> list[Any]:
        """Read ``npages`` contiguous images as one bandwidth-cost transfer.

        Slots never written return ``None`` (reading an erased region of a
        cache device is well defined and occurs during metadata recovery).
        """
        self.device.read(lba, npages)
        return self.store.peek_many(range(lba, lba + npages))

    def write_batch(self, lba: int, images: Sequence[Any]) -> None:
        """Write contiguous images as one bandwidth-cost transfer."""
        self.device.write(lba, len(images))
        stop = lba + len(images)
        if 0 <= lba and stop <= self._direct_limit and not OBS.enabled:
            self._slots.update(zip(range(lba, stop), images))
        else:
            self.store.put_many(zip(range(lba, stop), images))

    def write_pages(self, items: Sequence[tuple[int, Any]]) -> None:
        """Write scattered ``(lba, image)`` pages: each charged as its own
        one-page write, in order, and all stored by one store call."""
        write = self.device.write
        direct = not OBS.enabled
        limit = self._direct_limit
        for lba, _ in items:
            write(lba, 1)
            if not 0 <= lba < limit:
                direct = False
        if direct:
            self._slots.update(items)
        else:
            self.store.put_many(items)

    # -- untimed helpers --------------------------------------------------------

    def peek(self, lba: int) -> Any | None:
        """Contents of ``lba`` (``None`` if empty) without charging I/O: audits,
        and data-path reads whose transfer was charged as part of a batch."""
        if 0 <= lba < self._direct_limit and not OBS.enabled:
            return self._slots.get(lba)
        return self.store.peek(lba)

    def peek_many(self, lbas: Sequence[int]) -> list[Any | None]:
        """:meth:`peek` each of ``lbas`` with one store call: the pages of a
        batch whose transfer was already charged."""
        return self.store.peek_many(lbas)

    @property
    def capacity_pages(self) -> int:
        return self.store.capacity_pages

    @property
    def busy_time(self) -> float:
        return self.device.busy_time
