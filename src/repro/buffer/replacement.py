"""DRAM buffer replacement policies.

The paper's PostgreSQL prototype inherits the buffer manager's default
policy; the reproduction defaults to strict LRU (a faithful stand-in for
analysis) and also provides CLOCK (closer to PostgreSQL's actual
clock-sweep) so the sensitivity of FaCE's results to the *DRAM* policy can
be measured — FaCE's design claim is that its caching decisions piggyback
on whatever the DRAM replacement does.

A policy only decides *ordering*; frame storage, pin handling and counters
stay in :class:`repro.buffer.pool.BufferPool`.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from copy import deepcopy

from repro.buffer.frame import Frame
from repro.errors import BufferFullError, ConfigError

_new = object.__new__


class ReplacementPolicy(abc.ABC):
    """Tracks resident frames and picks eviction victims."""

    @abc.abstractmethod
    def insert(self, frame: Frame) -> None:
        """A frame was admitted."""

    @abc.abstractmethod
    def touch(self, frame: Frame) -> None:
        """A resident frame was referenced."""

    @abc.abstractmethod
    def remove(self, page_id: int) -> None:
        """A frame left the pool (evicted or dropped)."""

    @abc.abstractmethod
    def victims(self, count: int) -> list[Frame]:
        """Up to ``count`` unpinned eviction candidates, coldest first.

        Must raise :class:`BufferFullError` when ``count >= 1`` and no
        unpinned frame exists.
        """

    @abc.abstractmethod
    def evict(self) -> Frame:
        """Remove and return the one victim ``victims(1)`` would name.

        The once-per-DRAM-miss entry point: one call, not ``victims(1)``
        plus ``remove``.  Raises :class:`BufferFullError` like ``victims``.
        """

    @abc.abstractmethod
    def frames(self) -> list[Frame]:
        """All resident frames, coldest -> hottest."""


class LruPolicy(ReplacementPolicy):
    """Strict least-recently-used ordering."""

    def __init__(self) -> None:
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()

    def __deepcopy__(self, memo: dict) -> "LruPolicy":
        # The pool's copy (BufferPool.__deepcopy__) has put every frame in
        # ``memo``: the order is rebuilt over those frames, not walked.
        clone = _new(LruPolicy)
        get = memo.get
        clone._frames = OrderedDict(
            (page_id, get(id(frame)) or deepcopy(frame, memo))
            for page_id, frame in self._frames.items()
        )
        return clone

    def insert(self, frame: Frame) -> None:
        self._frames[frame.page_id] = frame

    def touch(self, frame: Frame) -> None:
        self._frames.move_to_end(frame.page_id)

    def remove(self, page_id: int) -> None:
        self._frames.pop(page_id, None)

    def victims(self, count: int) -> list[Frame]:
        # Stop as soon as enough victims are found: the common call is
        # victims(1) from an eviction, which would otherwise scan (and
        # check the pin of) every resident frame per DRAM miss.
        out: list[Frame] = []
        if count < 1:
            return out
        for frame in self._frames.values():
            if not frame.pin_count:
                out.append(frame)
                if len(out) == count:
                    break
        if not out:
            raise BufferFullError("all frames pinned; cannot evict")
        return out

    def evict(self) -> Frame:
        frames = self._frames
        for frame in frames.values():
            if not frame.pin_count:
                del frames[frame.page_id]  # returns at once: no iteration after
                return frame
        raise BufferFullError("all frames pinned; cannot evict")

    def frames(self) -> list[Frame]:
        return list(self._frames.values())


class ClockPolicy(ReplacementPolicy):
    """CLOCK (second chance): a hand sweeps a ring, clearing reference
    bits; a frame with a cleared bit is the victim."""

    def __init__(self) -> None:
        self._ring: list[Frame] = []
        self._index: dict[int, int] = {}
        self._hand = 0

    def insert(self, frame: Frame) -> None:
        self._index[frame.page_id] = len(self._ring)
        self._ring.append(frame)

    def touch(self, frame: Frame) -> None:
        frame.referenced = True  # the hand consumes this later

    def remove(self, page_id: int) -> None:
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
            if frame.pinned or frame.page_id in chosen:
                continue
            if frame.referenced:
                frame.referenced = False  # second chance
                continue
            chosen.add(frame.page_id)
            out.append(frame)
        if count >= 1 and not out:
            raise BufferFullError("all frames pinned or referenced; cannot evict")
        return out

    def evict(self) -> Frame:
        victim = self.victims(1)[0]
        self.remove(victim.page_id)
        return victim

    def frames(self) -> list[Frame]:
        # Coldest-first approximation: hand order.
        n = len(self._ring)
        return [self._ring[(self._hand + i) % n] for i in range(n)]


def make_policy(name: str) -> ReplacementPolicy:
    """Factory: ``"lru"`` or ``"clock"``."""
    if name == "lru":
        return LruPolicy()
    if name == "clock":
        return ClockPolicy()
    raise ConfigError(f"unknown buffer replacement policy {name!r}")
