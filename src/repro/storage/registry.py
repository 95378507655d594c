"""Registry of interchangeable page-store backends.

Each backend name maps to its store class; the class itself carries its
name and whether it is persistent.  Selection threads through
``SystemConfig.page_store`` / ``ExperimentConfig.page_store`` / the CLI
``--page-store`` flag.

Backends differ only in *where the bytes live*; the device model still
charges all simulated time, so any backend yields bit-identical results
(pinned in ``tests/test_page_store.py``, gated in
``benchmarks/BENCH_storage.json``).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.storage.backing import MemoryPageStore, PageStore
from repro.storage.persistent import MmapPageStore, SqlitePageStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig


#: Backend name -> store class; each class names itself (``backend_name``)
#: and says whether its bytes outlive the process (``persistent``).
_REGISTRY: dict[str, type[PageStore]] = {
    cls.backend_name: cls for cls in (MemoryPageStore, SqlitePageStore, MmapPageStore)
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def page_store_class(name: str) -> type[PageStore]:
    """The store class registered as ``name``; unknown names raise."""
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
    cls = page_store_class(name)
    if not cls.persistent:
        if path is not None:
            raise ConfigError(
                f"page-store backend {name!r} is not file-backed; "
                "drop the path or pick a persistent backend "
                f"({', '.join(n for n, c in _REGISTRY.items() if c.persistent)})"
            )
        return cls(capacity_pages)
    return cls(capacity_pages, path)


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
    path: str | None = None
    if page_store_class(name).persistent and config.page_store_dir:
        os.makedirs(config.page_store_dir, exist_ok=True)
        path = os.path.join(config.page_store_dir, f"{role}.{name}")
    return make_page_store(name, capacity_pages, path)
