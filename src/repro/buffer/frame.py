"""Buffer frame: one DRAM-resident page plus its FaCE state flags.

The paper's Algorithm 1 needs *two* dirty flags per buffered page:

* ``dirty``  — the page is newer than its **disk** copy.
* ``fdirty`` — the page is newer than its **flash-cache** copy ("flash
  dirty", Section 3.3).

The rules (paper, Figure 2) are the small state-transition methods here;
the data path sets the same flags inline, at admission and on a logged
update, each place marked with the method it writes out:

* fetched from disk        → ``dirty = fdirty = False``
* fetched from flash cache → ``fdirty = False`` and ``dirty`` preserved from
  the flash directory (the flash/DRAM copies are synced; disk may be stale)
* updated in DRAM          → ``dirty = fdirty = True``
"""

from __future__ import annotations

from repro.db.page import Page

_new = object.__new__


class Frame:
    """One buffer-pool frame.

    ``__slots__`` because the simulator materialises one Frame per DRAM
    admission on the hot path; ``page_id`` is copied off the page because
    every layer keys on it several times per eviction.  A new field must
    also be set by ``BufferPool.admit`` and :meth:`__deepcopy__`, which
    build frames without calling ``__init__``.
    """

    __slots__ = ("page", "page_id", "dirty", "fdirty", "referenced")

    def __init__(self, page: Page, dirty: bool = False, fdirty: bool = False) -> None:
        self.page = page
        self.page_id = page.page_id
        self.dirty = dirty
        self.fdirty = fdirty
        #: Set when the frame is re-referenced while resident; consumed by
        #: the CLOCK policy's sweep (not read under LRU).
        self.referenced = False

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

    # -- FaCE flag transitions (paper Figure 2 / Algorithm 1) -------------

    def on_fetch_from_disk(self) -> None:
        """No cached copy exists: both flags drop."""
        self.dirty = False
        self.fdirty = False

    def on_fetch_from_flash(self, flash_copy_dirty: bool) -> None:
        """DRAM and flash copies are now synced; disk may still be stale."""
        self.dirty = flash_copy_dirty
        self.fdirty = False

    def on_update(self) -> None:
        """The DRAM copy is now newer than both non-volatile copies."""
        self.dirty = True
        self.fdirty = True
