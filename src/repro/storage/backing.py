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
  crash --hard``).

The timing contract is unchanged by the backend choice: the device model
stays authoritative for simulated time, a backend only holds the bytes.
Replay parity across backends is pinned in ``tests/test_page_store.py``
and gated in ``benchmarks/BENCH_storage.json``.

Instantiating the abstract class directly — ``PageStore(capacity)`` —
returns a :class:`MemoryPageStore`, pathlib-style, so every historical
call site and test keeps working.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import OutOfRangeError, PageNotFoundError
from repro.obs import OBS


class PageStore:
    """A bounded array of page-image slots addressed by LBA.

    Images are treated as immutable snapshots: callers must store frozen
    objects (see :meth:`repro.db.page.Page.to_image`), never live mutable
    pages, so that later in-DRAM updates cannot retroactively change what
    was "written" to the medium.

    Subclass contract — implement :meth:`put`, :meth:`get`, :meth:`peek`,
    :meth:`delete`, ``__contains__``, ``__len__``, :meth:`occupied`,
    :meth:`clear`, :meth:`snapshot_slots` and :meth:`_install_slots`;
    bounds-check every LBA with :meth:`_check`.  ``occupied()`` must
    iterate in ascending LBA order (a stable, backend-independent order —
    recovery tooling and tests rely on it).  ``adopt_slots`` validation is
    implemented here once, on top of ``_install_slots``.
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

    # -- observability --------------------------------------------------------

    def _note_put(self, nbytes: int = 0) -> None:
        """Count one put (call only under ``OBS.enabled``)."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs()
        handles[0].inc()
        if nbytes:
            handles[2].inc(nbytes)

    def _note_get(self, nbytes: int = 0) -> None:
        """Count one get/peek that found an image (call under ``OBS.enabled``)."""
        handles = self._obs_handles
        if handles is None:
            handles = self._obs()
        handles[1].inc()
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
