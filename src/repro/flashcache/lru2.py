"""LRU-2 replacement policy.

The Lazy Cleaning baseline manages its flash cache with LRU-2 (the paper,
Section 2.3, citing Do et al.): the victim is the page whose *second* most
recent reference is oldest; pages referenced only once rank behind all
twice-referenced pages, ordered by their single reference time.  This
resists the scan-flooding that plain LRU suffers in a second-level cache.

Implemented with a lazy-deletion heap: each touch pushes the key's current
priority; stale heap entries are skipped at pop time.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterator

from repro.errors import CacheError

_NEVER = -1  # stands in for "-infinity": no second-to-last reference yet


class Lru2Policy:
    """Tracks reference history and picks LRU-2 victims."""

    def __init__(self) -> None:
        self._clock = 0
        #: key -> (second-most-recent time or _NEVER, most-recent time)
        self._history: dict[Hashable, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, Hashable]] = []

    def touch(self, key: Hashable) -> None:
        """Record a reference to ``key`` (inserting it if new)."""
        self._clock += 1
        previous = self._history.get(key)
        penultimate = previous[1] if previous is not None else _NEVER
        entry = (penultimate, self._clock)
        self._history[key] = entry
        heapq.heappush(self._heap, (entry[0], entry[1], key))
        # Lazy deletion lets stale entries pile up between victims; rebuild
        # from the (always-current) history once they dominate, so heap
        # memory and per-pop cost stay proportional to the tracked keys.
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._history):
            self._heap = [(p, last, k) for k, (p, last) in self._history.items()]
            heapq.heapify(self._heap)

    def victim(self) -> Hashable:
        """Return (and forget) the LRU-2 victim among tracked keys."""
        while self._heap:
            penultimate, last, key = heapq.heappop(self._heap)
            current = self._history.get(key)
            if current == (penultimate, last):
                del self._history[key]
                return key
        raise CacheError("victim() called with no tracked keys")

    def iter_coldest(self) -> Iterator[Hashable]:
        """Yield tracked keys coldest → hottest, incrementally.

        Consuming ``k`` keys costs O((k + s) log n) — ``s`` being stale
        lazy-deletion entries, which are dropped for good as a side effect —
        instead of an O(n log n) full sort up front.  This is what lets the
        LC cleaner stop after flushing a handful of cold pages without
        ranking the whole cache.

        Valid entries popped during iteration are re-pushed when the
        iterator is closed or exhausted, so policy state is unchanged.  The
        caller must not call :meth:`touch` or :meth:`victim` while
        iterating.
        """
        heap = self._heap
        history = self._history
        popped: list[tuple[int, int, Hashable]] = []
        try:
            while heap:
                entry = heapq.heappop(heap)
                if history.get(entry[2]) == (entry[0], entry[1]):
                    popped.append(entry)
                    yield entry[2]
        finally:
            for entry in popped:
                heapq.heappush(heap, entry)
