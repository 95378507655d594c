"""Non-volatile page-image stores: the abstract interface + memory backend.

Separates *what a device holds* from *how long it takes* (the
:class:`~repro.storage.device.Device` timing model).  A :class:`PageStore`
maps logical block addresses to opaque, immutable page images.  Everything
placed in a ``PageStore`` survives a simulated crash — this is precisely the
non-volatility property of flash and disk that FaCE's recovery design
(Section 4) builds on; DRAM-side state is simply never put in one.

:class:`PageStore` is the abstract interface; concrete backends are
registered in :mod:`repro.storage.registry` (mirroring the policy and
workload registries):

* ``memory`` — :class:`MemoryPageStore`, the in-process dict (default).
* ``sqlite`` / ``mmap`` — :mod:`repro.storage.persistent`, file-backed
  stores whose contents genuinely outlive the process, enabling
  out-of-core database scales and hard-crash tests (``python -m repro
  crash``).

The timing contract is unchanged by the backend choice: the device model
stays authoritative for simulated time, a backend only holds the bytes.
Replay parity across backends is pinned in ``tests/test_page_store.py``
and gated in ``benchmarks/BENCH_storage.json``.

Instantiating the abstract class directly — ``PageStore(capacity)`` —
returns a :class:`MemoryPageStore`, pathlib-style, so every historical
call site and test keeps working.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import OutOfRangeError, PageNotFoundError
from repro.obs import OBS


class PageStore:
    """A bounded array of page-image slots addressed by LBA.

    Images are treated as immutable snapshots: callers must store frozen
    objects (see :meth:`repro.db.page.Page.to_image`), never live mutable
    pages, so that later in-DRAM updates cannot retroactively change what
    was "written" to the medium.

    A read returns an object equal to the one last written at the LBA,
    not necessarily a new one: the memory backend returns the stored
    object itself, and a persistent backend may return the object it was
    given while the bytes it holds are still that object's encoding
    (:mod:`repro.storage.persistent`).  Callers must not rely on getting
    a fresh object, or on object identity at all.

    Subclass contract — implement :meth:`put`, :meth:`get`, :meth:`peek`,
    :meth:`delete`, ``__contains__``, ``__len__``, :meth:`occupied`,
    :meth:`clear`, :meth:`snapshot_slots` and :meth:`_install_slots`;
    bounds-check every LBA with :meth:`_check`.  ``occupied()`` must
    iterate in ascending LBA order (a stable, backend-independent order —
    recovery tooling and tests rely on it).  ``adopt_slots`` validation is
    implemented here once, on top of ``_install_slots``.

    A batch is one store call: :meth:`put_many` and :meth:`peek_many`
    default to loops over ``put`` / ``peek``; a backend overrides them to
    move the whole batch at once (one dict update, one SQLite transaction,
    one ``os.write``).  ``put_many`` must equal the same sequence of puts
    (a repeated LBA: the last image wins) and range-check every LBA before
    it writes anything.

    Durability: a ``persistent`` backend's contents survive *process
    death* (``SIGKILL``), not power loss.  Every completed write is in the
    kernel's page cache, but none is forced to the medium: sqlite runs
    ``synchronous=OFF``, and mmap fsyncs only in ``flush()``.  That is the
    level ``python -m repro crash`` exercises and reports.
    """

    #: Registry name of the backend (``storage.backend.<name>.*`` metrics).
    backend_name = "memory"
    #: Whether contents survive process death (file-backed backends).
    persistent = False

    def __new__(cls, *args, **kwargs):
        # ``PageStore(capacity)`` builds the default backend, so the
        # abstract class doubles as the historical concrete entry point.
        if cls is PageStore:
            cls = MemoryPageStore
        return object.__new__(cls)

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise OutOfRangeError(f"capacity must be positive, got {capacity_pages}")
        self.capacity_pages = int(capacity_pages)
        self._obs_handles = None  # lazy (puts, gets, bytes_w, bytes_r)

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.capacity_pages:
            raise OutOfRangeError(
                f"lba {lba} outside store of {self.capacity_pages} pages"
            )

    def _check_many(self, lbas: Sequence[int]) -> None:
        """:meth:`_check` every LBA of a batch (its extremes suffice)."""
        if lbas:
            self._check(min(lbas))
            self._check(max(lbas))

    def _checked_items(self, items: Iterable[tuple[int, Any]]) -> list[tuple[int, Any]]:
        """A ``put_many`` batch as a list, every LBA checked."""
        items = list(items)
        self._check_many([lba for lba, _ in items])
        return items

    # -- observability --------------------------------------------------------

    def _note_put(self, nbytes: int = 0, pages: int = 1) -> None:
        """Count ``pages`` puts of ``nbytes`` in all (call only under
        ``OBS.enabled``)."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs()
        handles[0].inc(pages)
        if nbytes:
            handles[2].inc(nbytes)

    def _note_get(self, nbytes: int = 0, pages: int = 1) -> None:
        """Count ``pages`` gets/peeks that found an image, ``nbytes`` in all
        (call under ``OBS.enabled``)."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs()
        handles[1].inc(pages)
        if nbytes:
            handles[3].inc(nbytes)

    def _obs(self):
        prefix = f"storage.backend.{self.backend_name}"
        self._obs_handles = handles = (
            OBS.counter(f"{prefix}.puts"),
            OBS.counter(f"{prefix}.gets"),
            OBS.counter(f"{prefix}.bytes_written"),
            OBS.counter(f"{prefix}.bytes_read"),
        )
        return handles

    # -- abstract primitives --------------------------------------------------

    def put(self, lba: int, image: Any) -> None:
        """Store ``image`` at ``lba``, replacing any previous image."""
        raise NotImplementedError

    def get(self, lba: int) -> Any:
        """Return the image at ``lba``; raise if the slot was never written."""
        raise NotImplementedError

    def peek(self, lba: int) -> Any | None:
        """Return the image at ``lba`` or ``None`` — never raises on empty."""
        raise NotImplementedError

    def put_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Store each ``(lba, image)`` pair, in order, as one batch.

        The LBAs may be contiguous or scattered; a repeated LBA keeps its
        last image.  An out-of-range LBA anywhere in the batch raises
        :class:`~repro.errors.OutOfRangeError` before anything is written.
        """
        for lba, image in self._checked_items(items):
            self.put(lba, image)

    def peek_many(self, lbas: Sequence[int]) -> list[Any | None]:
        """:meth:`peek` each of ``lbas``, as one batch: a list, in order."""
        self._check_many(lbas)
        return [self.peek(lba) for lba in lbas]

    def delete(self, lba: int) -> None:
        """Drop the image at ``lba`` (idempotent)."""
        raise NotImplementedError

    def __contains__(self, lba: int) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def occupied(self) -> Iterator[int]:
        """Iterate the LBAs that currently hold an image, ascending."""
        raise NotImplementedError

    def clear(self) -> None:
        """Erase the medium (used only when building fresh experiments)."""
        raise NotImplementedError

    def snapshot_slots(self) -> dict[int, Any]:
        """A point-in-time ``{lba: image}`` copy of the whole medium.

        The public replacement for reaching into backend internals: images
        are immutable snapshots, so the shallow mapping copy is a complete
        logical copy of the medium regardless of the backend.
        """
        raise NotImplementedError

    def _install_slots(self, slots: Mapping[int, Any]) -> None:
        """Backend hook: replace all contents with (validated) ``slots``."""
        raise NotImplementedError

    def direct_slots(self) -> dict[int, Any] | None:
        """The live ``{lba: image}`` table if this backend *is* one, else
        ``None``.  A :class:`~repro.storage.volume.Volume` works on it
        directly, so it must stay the same object for the store's life."""
        return None

    # -- shared API -----------------------------------------------------------

    def adopt_slots(self, slots: Mapping[int, Any]) -> None:
        """Replace the whole medium with a copy of ``slots`` (lba -> image).

        Used by warm-state forking (:mod:`repro.sim.warmstate`): the images
        are immutable snapshots, so adopting the mapping is a full logical
        copy of the medium.  Every LBA is validated against
        ``capacity_pages``; an out-of-range key raises
        :class:`~repro.errors.OutOfRangeError` and leaves the store
        untouched.
        """
        for lba in slots:
            if not 0 <= lba < self.capacity_pages:
                raise OutOfRangeError(
                    f"adopt_slots: lba {lba} outside store of "
                    f"{self.capacity_pages} pages"
                )
        self._install_slots(slots)

    def flush(self) -> None:
        """Push buffered writes to the backing medium (no-op for memory).

        The hard-crash harness calls this before ``SIGKILL`` so that the
        surviving file reflects every completed simulated write.
        """


class MemoryPageStore(PageStore):
    """The default backend: an in-process dict (volatile, fastest)."""

    backend_name = "memory"
    persistent = False

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._slots: dict[int, Any] = {}

    def __deepcopy__(self, memo: dict) -> "MemoryPageStore":
        # Images are immutable, so one flat dict copy is a full copy of the
        # medium (see adopt_slots).  Like a persistent store's fork, the
        # clone fetches its own observability handles.
        clone = MemoryPageStore(self.capacity_pages)
        clone._slots = self._slots.copy()
        return clone

    def put(self, lba: int, image: Any) -> None:
        self._check(lba)
        self._slots[lba] = image
        if OBS.enabled:
            self._note_put()

    def get(self, lba: int) -> Any:
        self._check(lba)
        try:
            image = self._slots[lba]
        except KeyError:
            raise PageNotFoundError(f"no page image at lba {lba}") from None
        if OBS.enabled:
            self._note_get()
        return image

    def peek(self, lba: int) -> Any | None:
        self._check(lba)
        image = self._slots.get(lba)
        if image is not None and OBS.enabled:
            self._note_get()
        return image

    def put_many(self, items: Iterable[tuple[int, Any]]) -> None:
        items = self._checked_items(items)
        self._slots.update(items)
        if items and OBS.enabled:
            self._note_put(pages=len(items))

    def peek_many(self, lbas: Sequence[int]) -> list[Any | None]:
        self._check_many(lbas)
        images = [self._slots.get(lba) for lba in lbas]
        if OBS.enabled:
            found = sum(image is not None for image in images)
            if found:
                self._note_get(pages=found)
        return images

    def delete(self, lba: int) -> None:
        self._check(lba)
        self._slots.pop(lba, None)

    def __contains__(self, lba: int) -> bool:
        return lba in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def occupied(self) -> Iterator[int]:
        return iter(sorted(self._slots))

    def clear(self) -> None:
        self._slots.clear()

    def snapshot_slots(self) -> dict[int, Any]:
        return dict(self._slots)

    def _install_slots(self, slots: Mapping[int, Any]) -> None:
        # In place: volumes hold this dict (see direct_slots).
        if slots is not self._slots:
            self._slots.clear()
            self._slots.update(slots)

    def direct_slots(self) -> dict[int, Any]:
        return self._slots
