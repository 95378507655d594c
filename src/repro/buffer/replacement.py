"""CLOCK, the DRAM buffer's second replacement policy.

The paper's PostgreSQL prototype inherits the buffer manager's default
policy; the reproduction defaults to strict LRU (a faithful stand-in for
analysis) and also provides CLOCK (closer to PostgreSQL's actual
clock-sweep) so the sensitivity of FaCE's results to the *DRAM* policy can
be measured — FaCE's design claim is that its caching decisions piggyback
on whatever the DRAM replacement does.

LRU needs no object of its own: under LRU the pool's frame table is an
``OrderedDict`` kept in recency order (:class:`repro.buffer.pool.BufferPool`).
Under CLOCK the table is a plain dict and this ring decides the order;
frame storage and counters stay in the pool.
"""

from __future__ import annotations

from repro.buffer.frame import Frame
from repro.errors import BufferFullError


class ClockPolicy:
    """CLOCK (second chance): a hand sweeps a ring, clearing reference
    bits; a frame with a cleared bit is the victim.  The pool sets the bit
    on every hit."""

    def __init__(self) -> None:
        self._ring: list[Frame] = []
        self._index: dict[int, int] = {}
        self._hand = 0

    def insert(self, frame: Frame) -> None:
        """A frame was admitted."""
        self._index[frame.page_id] = len(self._ring)
        self._ring.append(frame)

    def remove(self, page_id: int) -> None:
        """A frame left the pool (evicted or dropped)."""
        position = self._index.pop(page_id, None)
        if position is None:
            return
        last = self._ring.pop()
        if position < len(self._ring):
            self._ring[position] = last
            self._index[last.page_id] = position
        if self._hand >= len(self._ring):
            self._hand = 0

    def victims(self, count: int) -> list[Frame]:
        """Up to ``count`` eviction candidates, coldest first; raises
        :class:`BufferFullError` when ``count >= 1`` and the ring is empty.

        Two sweeps clear every reference bit, so a non-empty ring always
        yields at least one victim.
        """
        out: list[Frame] = []
        if not self._ring:
            if count >= 1:
                raise BufferFullError("empty pool; cannot evict")
            return out
        chosen: set[int] = set()
        sweeps = 0
        limit = 2 * len(self._ring) + count  # two full sweeps max
        while len(out) < count and sweeps < limit:
            frame = self._ring[self._hand % len(self._ring)]
            self._hand = (self._hand + 1) % len(self._ring)
            sweeps += 1
            if frame.page_id in chosen:
                continue
            if frame.referenced:
                frame.referenced = False  # second chance
                continue
            chosen.add(frame.page_id)
            out.append(frame)
        return out

    def evict(self) -> Frame:
        """Remove and return the one victim ``victims(1)`` would name."""
        victim = self.victims(1)[0]
        self.remove(victim.page_id)
        return victim
