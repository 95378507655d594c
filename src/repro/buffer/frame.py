"""Buffer frame: one DRAM-resident page plus its FaCE state flags.

The paper's Algorithm 1 needs *two* dirty flags per buffered page:

* ``dirty``  — the page is newer than its **disk** copy.
* ``fdirty`` — the page is newer than its **flash-cache** copy ("flash
  dirty", Section 3.3).

The rules (paper, Figure 2), which the data path applies where it admits
a frame (``SimulatedDBMS._fetch_miss``) and where it logs an update
(``SimulatedDBMS._apply_logged_update``):

* fetched from disk        → ``dirty = fdirty = False``
* fetched from flash cache → ``fdirty = False`` and ``dirty`` preserved from
  the flash directory (the flash/DRAM copies are synced; disk may be stale)
* updated in DRAM          → ``dirty = fdirty = True``
"""

from __future__ import annotations

_new = object.__new__


class Frame:
    """One buffer-pool frame.

    ``__slots__`` because the simulator materialises one Frame per DRAM
    admission on the hot path; ``page_id`` is copied off the page because
    every layer keys on it several times per eviction.  Frames are built
    only by ``BufferPool.admit`` and :meth:`__deepcopy__`, which set every
    field; a new field must be set in both.  ``referenced`` is set when a
    resident frame is hit under CLOCK and consumed by its sweep.
    """

    __slots__ = ("page", "page_id", "dirty", "fdirty", "referenced")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Frame {self.page_id} dirty={self.dirty} fdirty={self.fdirty}>"

    def __deepcopy__(self, memo: dict) -> "Frame":
        # The five fields, not ``copy``'s generic reduce-and-rebuild walk: a
        # warm fork (repro.sim.warmstate) copies every resident frame.
        clone = _new(Frame)
        # A page belongs to its one frame, so it needs no entry in ``memo``.
        clone.page = self.page.__deepcopy__(memo)
        clone.page_id = self.page_id
        clone.dirty = self.dirty
        clone.fdirty = self.fdirty
        clone.referenced = self.referenced
        return clone
