"""DRAM buffer pool.

Models PostgreSQL's shared-buffer pool at the level of detail the paper's
algorithms need: strict LRU replacement by default (CLOCK optionally — see
:mod:`repro.buffer.replacement`), the ``dirty``/``fdirty`` flags on every
frame, and two eviction entry points —

* :meth:`make_room`, the normal ``getFreeBuffer`` path that frees exactly
  one frame, and
* :meth:`pull_tail`, the GSC helper that pulls extra cold pages to top up
  a flash-cache replacement batch (Section 3.3 — analogous to the Linux
  writeback daemons / Oracle DBWR the paper cites).

Under LRU the frame table *is* the recency order: one ``OrderedDict``,
coldest first, so a hit is ``move_to_end``, an admission one insert and an
eviction ``popitem(last=False)``.  Nothing pins a frame: every transaction
holds a page only for the one slot read or update it makes.

The pool never does I/O itself; evicted frames are handed to the caller
(the DBMS data path), which routes them to the flash cache or disk
according to the active policy.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import deepcopy

from repro.buffer.frame import Frame
from repro.buffer.replacement import ClockPolicy
from repro.buffer.stats import BufferStats
from repro.db.page import Page
from repro.errors import BufferFullError, ConfigError
from repro.obs import OBS

_new = object.__new__


class BufferPool:
    """Fixed-capacity pool of :class:`Frame` objects."""

    def __init__(self, capacity: int, policy: str = "lru") -> None:
        if capacity < 1:
            raise ConfigError(f"buffer pool needs >= 1 frame, got {capacity}")
        if policy not in ("lru", "clock"):
            raise ConfigError(f"unknown buffer replacement policy {policy!r}")
        self.capacity = capacity
        #: Page id -> frame; under LRU in recency order, coldest first.
        self._frames: OrderedDict[int, Frame] = OrderedDict()
        #: CLOCK's ring, or ``None`` under LRU.
        self._clock: ClockPolicy | None = ClockPolicy() if policy == "clock" else None
        self.stats = BufferStats()
        self._obs_handles: dict | None = None

    def __deepcopy__(self, memo: dict) -> "BufferPool":
        # A warm fork (repro.sim.warmstate) of a pool that holds the whole
        # database copies thousands of frames.  Each is copied once, here,
        # not through ``copy``'s walk over the table, and kept in ``memo``,
        # so CLOCK's ring copy holds these very frames.
        clone = _new(BufferPool)
        memo[id(self)] = clone
        frames = OrderedDict()
        for page_id, frame in self._frames.items():
            twin = memo.get(id(frame))
            if twin is None:
                twin = memo[id(frame)] = frame.__deepcopy__(memo)
            frames[page_id] = twin
        clone.capacity = self.capacity
        clone._frames = frames
        clone._clock = deepcopy(self._clock, memo)
        clone.stats = deepcopy(self.stats, memo)
        clone._obs_handles = deepcopy(self._obs_handles, memo)
        return clone

    # -- lookups -----------------------------------------------------------

    def lookup(self, page_id: int) -> Frame | None:
        """Return the resident frame for ``page_id`` or ``None`` on a miss.

        A hit refreshes replacement state (LRU order, or CLOCK's reference
        bit) and is counted; misses are counted too (callers then fetch
        from below).
        """
        frames = self._frames
        frame = frames.get(page_id)
        if frame is None:
            self.stats.misses += 1
            if OBS.enabled:
                self._obs_handle("miss").inc()
            return None
        self.stats.hits += 1
        if OBS.enabled:
            self._obs_handle("hit").inc()
        if self._clock is None:
            frames.move_to_end(page_id)
        else:
            frame.referenced = True
        return frame

    def peek(self, page_id: int) -> Frame | None:
        """Return the frame without touching replacement state or counters."""
        return self._frames.get(page_id)

    # -- admission / eviction ------------------------------------------------

    def admit(self, page: Page, dirty: bool = False, fdirty: bool = False) -> Frame:
        """Install ``page`` as a fresh frame.

        The caller must have freed space first (:meth:`make_room`);
        admitting into a full pool is a programming error.
        """
        frames = self._frames
        page_id = page.page_id
        if page_id in frames:
            raise ConfigError(f"page {page_id} already buffered")
        if len(frames) >= self.capacity:
            raise BufferFullError("admit() on a full pool; call make_room() first")
        # The one place a frame is built: once per DRAM miss.
        frame = _new(Frame)
        frame.page = page
        frame.page_id = page_id
        frame.dirty = dirty
        frame.fdirty = fdirty
        frame.referenced = False
        frames[page_id] = frame
        if self._clock is not None:
            self._clock.insert(frame)
        return frame

    def make_room(self) -> Frame | None:
        """Evict and return the coldest frame if the pool is full.

        Returns ``None`` when there is already a free slot.
        """
        frames = self._frames
        if len(frames) < self.capacity:
            return None
        clock = self._clock
        if clock is None:
            victim = frames.popitem(last=False)[1]
        else:
            victim = clock.evict()
            del frames[victim.page_id]
        stats = self.stats
        stats.evictions += 1
        is_dirty = victim.dirty or victim.fdirty
        if is_dirty:
            stats.dirty_evictions += 1
        else:
            stats.clean_evictions += 1
        if OBS.enabled:
            self._obs_handle("evict.dirty" if is_dirty else "evict.clean").inc()
        return victim

    def pull_tail(self, max_frames: int) -> list[Frame]:
        """Evict up to ``max_frames`` of the coldest frames, coldest first.

        Used by Group Second Chance to fill a flash-write batch.  Returns
        fewer frames (or none) if the pool holds fewer; GSC tolerates a
        short batch.
        """
        frames = self._frames
        count = min(max_frames, len(frames))
        if count < 1:
            return []
        clock = self._clock
        if clock is None:
            pop = frames.popitem
            victims = [pop(last=False)[1] for _ in range(count)]
        else:
            victims = clock.victims(count)
            for frame in victims:
                del frames[frame.page_id]
                clock.remove(frame.page_id)
        dirty = sum([frame.dirty or frame.fdirty for frame in victims])
        clean = len(victims) - dirty
        stats = self.stats
        stats.evictions += len(victims)
        stats.dirty_evictions += dirty
        stats.clean_evictions += clean
        if OBS.enabled:
            if dirty:
                self._obs_handle("evict.dirty").inc(dirty)
            if clean:
                self._obs_handle("evict.clean").inc(clean)
        return victims

    def _obs_handle(self, suffix: str):
        """Lazily cached ``buffer.pool.<suffix>`` counter (guarded callers)."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs_handles = {}
        counter = handles.get(suffix)
        if counter is None:
            counter = handles[suffix] = OBS.counter(f"buffer.pool.{suffix}")
        return counter

    # -- checkpoint support ----------------------------------------------------

    def dirty_frames(self) -> list[Frame]:
        """All frames with either dirty flag set, coldest -> hottest."""
        return [f for f in self.frames() if f.dirty or f.fdirty]

    def frames(self) -> list[Frame]:
        """All resident frames (snapshot): coldest -> hottest under LRU,
        oldest admission first under CLOCK."""
        return list(self._frames.values())

    # -- crash simulation ----------------------------------------------------

    def wipe(self) -> None:
        """Lose all DRAM contents (crash).  Statistics survive for the
        experimenter, matching how the paper reports across-crash runs."""
        self._frames.clear()
        if self._clock is not None:
            self._clock = ClockPolicy()
