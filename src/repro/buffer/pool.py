"""DRAM buffer pool.

Models PostgreSQL's shared-buffer pool at the level of detail the paper's
algorithms need: a pluggable replacement policy (strict LRU by default,
CLOCK optionally — see :mod:`repro.buffer.replacement`), pin counts, the
``dirty``/``fdirty`` flags on every frame, and two eviction entry points —

* :meth:`make_room`, the normal ``getFreeBuffer`` path that frees exactly
  one frame, and
* :meth:`pull_tail`, the GSC helper that pulls extra cold pages to top up
  a flash-cache replacement batch (Section 3.3 — analogous to the Linux
  writeback daemons / Oracle DBWR the paper cites).

The pool never does I/O itself; evicted frames are handed to the caller
(the DBMS data path), which routes them to the flash cache or disk
according to the active policy.
"""

from __future__ import annotations

from repro.buffer.frame import Frame
from repro.buffer.replacement import ReplacementPolicy, make_policy
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
        self.capacity = capacity
        self.policy_name = policy
        self._policy: ReplacementPolicy = make_policy(policy)
        self._frames: dict[int, Frame] = {}
        self.stats = BufferStats()
        self._obs_handles: dict | None = None

    # -- lookups -----------------------------------------------------------

    def lookup(self, page_id: int) -> Frame | None:
        """Return the resident frame for ``page_id`` or ``None`` on a miss.

        A hit refreshes replacement state and the frame's reference bit and
        is counted; misses are counted too (callers then fetch from below).
        """
        frame = self._frames.get(page_id)
        if frame is None:
            self.stats.misses += 1
            if OBS.enabled:
                self._obs_handle("miss").inc()
            return None
        self.stats.hits += 1
        if OBS.enabled:
            self._obs_handle("hit").inc()
        self._policy.touch(frame)
        frame.referenced = True
        return frame

    def peek(self, page_id: int) -> Frame | None:
        """Return the frame without touching replacement state or counters."""
        return self._frames.get(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

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
        # Frame.__init__, inline: one frame is built per DRAM miss.
        frame = _new(Frame)
        frame.page = page
        frame.page_id = page_id
        frame.dirty = dirty
        frame.fdirty = fdirty
        frame.pin_count = 0
        frame.referenced = False
        frames[page_id] = frame
        self._policy.insert(frame)
        return frame

    def make_room(self) -> Frame | None:
        """Evict and return one cold unpinned frame if the pool is full.

        Returns ``None`` when there is already a free slot.  Raises
        :class:`BufferFullError` if every frame is pinned.
        """
        frames = self._frames
        if len(frames) < self.capacity:
            return None
        victim = self._policy.evict()
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
        """Evict up to ``max_frames`` cold unpinned frames.

        Used by Group Second Chance to fill a flash-write batch.  May
        return fewer frames (or none) if the pool is small or frames are
        pinned; GSC tolerates a short batch.
        """
        try:
            victims = self._policy.victims(max_frames)
        except BufferFullError:
            return []
        frames = self._frames
        remove = self._policy.remove
        for frame in victims:
            del frames[frame.page_id]
            remove(frame.page_id)
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

    def drop(self, page_id: int) -> Frame | None:
        """Remove a frame without counting an eviction (e.g. on table drop)."""
        frame = self._frames.pop(page_id, None)
        if frame is not None:
            self._policy.remove(page_id)
        return frame

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
        return [f for f in self._policy.frames() if f.dirty or f.fdirty]

    def frames(self) -> list[Frame]:
        """All resident frames, coldest -> hottest (snapshot)."""
        return self._policy.frames()

    # -- crash simulation ----------------------------------------------------

    def wipe(self) -> None:
        """Lose all DRAM contents (crash).  Statistics survive for the
        experimenter, matching how the paper reports across-crash runs."""
        self._frames.clear()
        self._policy = make_policy(self.policy_name)
