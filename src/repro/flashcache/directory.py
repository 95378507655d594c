"""In-DRAM directory for the mvFIFO flash cache.

The flash cache is a circular queue of page frames.  Positions are tracked
as *virtual* sequence numbers (monotonically increasing enqueue counters);
the physical flash LBA of virtual position ``v`` is ``v % capacity``.  Since
the queue never holds more than ``capacity`` live slots, virtual→physical is
injective over the live window and wrap-around needs no special cases.

The directory is a **position-indexed ring**: parallel ``page_ids`` /
``lsns`` / ``flags`` lists indexed by physical slot, plus the page→position
map ``valid_pos``.  The owning cache writes the ring itself
(``MvFifoCache._enqueue``): an enqueue overwrites three cells at ``rear``
and allocates nothing, and the hit path reads and sets flag bits in place.
The flag bits are the paper's (Section 3.3):

* :data:`VALID`  — this slot holds the *newest* cached version of its page.
  Enqueueing a page invalidates its previous version (no I/O, Figure 2).
* :data:`DIRTY`  — the cached version is newer than the disk copy.
* :data:`REFERENCED` — the page was hit while cached; consumed by Group
  Second Chance.

Invariant (property-tested): for every page id, at most one live slot is
valid, it is the most recently enqueued one, and ``valid_pos`` points at it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import CacheError

#: Slot flag bits (see the module docstring).
DIRTY = 1
VALID = 2
REFERENCED = 4

_new = object.__new__

#: One metadata entry: (virtual position, page_id, lsn, dirty).
Entry = tuple[int, int, int, bool]


class SlotMeta(NamedTuple):
    """A snapshot of one live slot, built by :meth:`FifoDirectory.meta_at`
    for audits and tests; the ring is the state."""

    page_id: int
    lsn: int
    dirty: bool
    valid: bool = True
    referenced: bool = False


class FifoDirectory:
    """Virtual-position circular-queue bookkeeping plus the page→slot map."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CacheError(f"flash cache needs >= 1 page, got {capacity}")
        self.capacity = capacity
        self.front = 0  # virtual position of the oldest live slot
        self.rear = 0  # virtual position the next enqueue will take
        #: The ring, indexed by ``position % capacity`` (live window only).
        self.page_ids: list[int] = [0] * capacity
        self.lsns: list[int] = [0] * capacity
        self.flags: list[int] = [0] * capacity
        #: page_id -> virtual position of its valid version.
        self.valid_pos: dict[int, int] = {}

    def __deepcopy__(self, memo: dict) -> "FifoDirectory":
        # Ints only: four C-level copies, not ``copy``'s walk over every
        # slot (a warm fork, repro.sim.warmstate, copies the directory).
        clone = _new(FifoDirectory)
        clone.__dict__.update(self.__dict__)
        clone.page_ids = self.page_ids.copy()
        clone.lsns = self.lsns.copy()
        clone.flags = self.flags.copy()
        clone.valid_pos = self.valid_pos.copy()
        return clone

    # -- sizing ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Live slots currently in the queue."""
        return self.rear - self.front

    @property
    def is_full(self) -> bool:
        return self.size >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - self.size

    def physical(self, position: int) -> int:
        """Flash LBA (within the cache region) of virtual ``position``."""
        return position % self.capacity

    # -- dequeue -------------------------------------------------------------

    def dequeue_batch(self, count: int) -> list[tuple[int, int]]:
        """Remove the ``count`` front slots; returns ``(position, flags)``
        pairs in front→rear order.  The one way slots leave the queue:
        single-slot replacement is a batch of one."""
        if not 0 <= count <= self.rear - self.front:
            raise CacheError(
                f"dequeue_batch({count}) from a queue of {self.size} slots"
            )
        front = self.front
        capacity = self.capacity
        start = front % capacity
        stop = start + count
        if stop <= capacity:
            batch_flags = self.flags[start:stop]
            batch_ids = self.page_ids[start:stop]
        else:  # the batch wraps the ring
            batch_flags = self.flags[start:] + self.flags[: stop - capacity]
            batch_ids = self.page_ids[start:] + self.page_ids[: stop - capacity]
        valid_pos = self.valid_pos
        for offset, slot_flags in enumerate(batch_flags):
            if slot_flags & VALID:
                page_id = batch_ids[offset]
                if valid_pos.get(page_id) == front + offset:
                    del valid_pos[page_id]
        self.front = front + count
        return list(zip(range(front, front + count), batch_flags))

    # -- lookups ------------------------------------------------------------

    def valid_position(self, page_id: int) -> int | None:
        """Virtual position of the valid copy of ``page_id``, if cached."""
        return self.valid_pos.get(page_id)

    def meta_at(self, position: int) -> SlotMeta:
        """Snapshot of the live slot at ``position`` (audits and tests)."""
        if not self.front <= position < self.rear:
            raise CacheError(f"no live slot at virtual position {position}")
        physical = position % self.capacity
        slot_flags = self.flags[physical]
        return SlotMeta(
            page_id=self.page_ids[physical],
            lsn=self.lsns[physical],
            dirty=bool(slot_flags & DIRTY),
            valid=bool(slot_flags & VALID),
            referenced=bool(slot_flags & REFERENCED),
        )

    def entries(self, start: int, stop: int) -> list[Entry]:
        """Metadata entries of the live positions ``[start, stop)``, in
        enqueue order — what a persistent metadata segment records."""
        if not self.front <= start <= stop <= self.rear:
            raise CacheError(
                f"entries [{start}, {stop}) outside the live window "
                f"[{self.front}, {self.rear})"
            )
        capacity = self.capacity
        page_ids, lsns, flags = self.page_ids, self.lsns, self.flags
        out: list[Entry] = []
        for position in range(start, stop):
            physical = position % capacity
            out.append(
                (position, page_ids[physical], lsns[physical],
                 bool(flags[physical] & DIRTY))
            )
        return out

    def contains_valid(self, page_id: int) -> bool:
        return page_id in self.valid_pos

    # -- statistics over live slots --------------------------------------------

    @property
    def valid_count(self) -> int:
        return len(self.valid_pos)

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of live slots holding superseded versions.

        The paper reports 30-40% duplicates for an 8 GB FaCE cache; this is
        the measured counterpart.
        """
        if self.size == 0:
            return 0.0
        return 1.0 - self.valid_count / self.size

    def live_positions(self) -> range:
        """Virtual positions currently live, front→rear order."""
        return range(self.front, self.rear)

    # -- crash ---------------------------------------------------------------

    def wipe(self) -> None:
        """Lose everything (RAM-resident); recovery rebuilds from flash."""
        self.front = 0
        self.rear = 0
        self.flags[:] = [0] * self.capacity  # no leftover reads as valid or dirty
        self.valid_pos.clear()

    def restore(self, front: int, rear: int, entries: list[Entry]) -> None:
        """Rebuild the directory from recovered metadata.

        ``entries`` is ``(virtual position, page_id, lsn, dirty)`` in enqueue
        order; later entries win validity, reproducing the invalidation
        history without having logged invalidations.
        """
        self.wipe()
        self.front = front
        self.rear = rear
        capacity = self.capacity
        flags = self.flags
        valid_pos = self.valid_pos
        for position, page_id, lsn, dirty in entries:
            if not front <= position < rear:
                continue  # already dequeued before the crash
            physical = position % capacity
            self.page_ids[physical] = page_id
            self.lsns[physical] = lsn
            slot_flags = (VALID | DIRTY) if dirty else VALID
            previous = valid_pos.get(page_id)
            if previous is None or previous < position:
                if previous is not None:
                    flags[previous % capacity] &= ~VALID
                valid_pos[page_id] = position
            else:
                slot_flags &= ~VALID
            flags[physical] = slot_flags
