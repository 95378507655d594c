"""Registry of interchangeable page-store backends.

The third instance of the repo's registry pattern (after
``core.policies`` and ``workload.registry``): a frozen descriptor per
backend, looked up by name, with a factory that builds a configured
store.  Selection threads through ``SystemConfig.page_store`` /
``ExperimentConfig.page_store`` / the CLI ``--page-store`` flag.

Backends differ only in *where the bytes live*; the device model still
charges all simulated time, so any backend yields bit-identical results
(pinned in ``tests/test_page_store.py``, gated in
``benchmarks/BENCH_storage.json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.storage.backing import MemoryPageStore, PageStore
from repro.storage.persistent import MmapPageStore, SqlitePageStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig


@dataclass(frozen=True)
class BackendEntry:
    """Descriptor for one registered page-store backend."""

    name: str
    factory: Callable[..., PageStore]
    persistent: bool
    description: str


_REGISTRY: dict[str, BackendEntry] = {
    entry.name: entry
    for entry in (
        BackendEntry(
            name="memory",
            factory=MemoryPageStore,
            persistent=False,
            description="in-process dict (default; volatile, fastest)",
        ),
        BackendEntry(
            name="sqlite",
            factory=SqlitePageStore,
            persistent=True,
            description="single-file SQLite B-tree; survives process death",
        ),
        BackendEntry(
            name="mmap",
            factory=MmapPageStore,
            persistent=True,
            description="log-structured append file with mmap reads; survives process death",
        ),
    )
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend_entry(name: str) -> BackendEntry:
    """Look up a backend descriptor, with a helpful error on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown page-store backend {name!r} "
            f"(available: {', '.join(_REGISTRY)})"
        ) from None


def make_page_store(
    name: str, capacity_pages: int, path: str | os.PathLike | None = None
) -> PageStore:
    """Build a backend by name.

    ``path`` is only meaningful for persistent backends (it is where the
    bytes live, and an existing file is *adopted*, not truncated — the
    hard-crash reopen path).  The memory backend rejects a path rather
    than silently dropping the caller's durability expectation.
    """
    entry = get_backend_entry(name)
    if not entry.persistent:
        if path is not None:
            raise ConfigError(
                f"page-store backend {name!r} is not file-backed; "
                "drop the path or pick a persistent backend "
                f"({', '.join(e.name for e in _REGISTRY.values() if e.persistent)})"
            )
        return entry.factory(capacity_pages)
    return entry.factory(capacity_pages, path)


def build_page_store(
    config: "SystemConfig", role: str, capacity_pages: int
) -> PageStore:
    """Build the store for one volume of a system (``role``: disk | flash).

    When ``config.page_store_dir`` is set, persistent backends get a
    stable per-role filename under it — reopening the same directory
    reconnects to the same bytes, which is what ``python -m repro
    crash`` relies on.  With no directory, persistent stores fall back
    to throwaway temp files (still exercising the real file path).
    """
    name = config.page_store
    entry = get_backend_entry(name)
    path: str | None = None
    if entry.persistent and config.page_store_dir:
        os.makedirs(config.page_store_dir, exist_ok=True)
        path = os.path.join(config.page_store_dir, f"{role}.{entry.name}")
    return make_page_store(name, capacity_pages, path)
