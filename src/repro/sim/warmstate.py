"""Warm-state reuse: load (and warm up) once, fork per identical run.

Two layers of memoization live here, both per worker process:

**Post-load snapshots.**  Every cell of a sweep that shares a
(scale, seed) pair starts from the *same* loaded database — the population
logic is deterministic and does not depend on any system knob — yet the
naive sweep re-runs the loader for each cell.  This module loads once per
(scale, seed, workload) per worker process, keeps the pristine result
memoized, and hands each cell a private fork:

* the catalog / heap-file / index graph is ``deepcopy``-ed in one call, so
  every internal cross-reference (a heap's ``TableInfo`` *is* the catalog's)
  survives with its sharing structure intact;
* the loaded disk image is a shallow copy of the LBA -> :class:`PageImage`
  mapping — images are immutable snapshots, so sharing them between forks is
  safe and the copy is O(pages), not O(rows);
* a persistent backend's disk store instead copies the file of the
  snapshot's *template* store for that backend, which the first fork on the
  backend encodes once — later forks encode no page.

The snapshot is taken **after load, before warm-up**: warm-up length and
effect depend on the cell's cache configuration, so post-warm-up state is
not shareable *across* cells.

**Post-warm-up forks.**  Repeated replays of the *same* cell — the warm
pass of a benchmark, ablation variants that share a baseline, repeated CLI
invocations in one process — re-execute an identical warm-up (tens of
thousands of transactions) only to arrive at a state this process has
already computed.  :func:`fork_dbms` deep-copies a warmed
:class:`~repro.core.dbms.SimulatedDBMS` in one call (so the buffer pool /
policy / cache / log aliasing survives intact, bound callbacks included)
while sharing the immutable bulk: :class:`~repro.db.page.PageImage`
snapshots copy as themselves, and the durable WAL — by far the largest
object population after warm-up — is a flat list of records that are never
mutated once appended (a full-page image is set on the record within the
very update that appended it), so forks share the records and copy only
the list spine.
:class:`ReplayRunner` captures a pristine fork keyed by the full replay
identity (config repr, scale, seed, warm-up bounds, replay loop) and
every later identical warm-up adopts a private re-fork instead of
replaying; results stay bit-identical because the adopted state *is* the
state warm-up would have rebuilt.  Runs with OBS enabled are never
eligible (warm-up's counter traffic must really happen for post-reset
snapshots to name the same metric set).
"""

from __future__ import annotations

import contextlib
import copy
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.config import CachePolicy, scaled_reference_config
from repro.core.dbms import SimulatedDBMS
from repro.db.catalog import Catalog
from repro.db.heap import HeapFile
from repro.db.index import HashIndex
from repro.storage.backing import PageStore
from repro.storage.registry import make_page_store
from repro.tpcc.scale import ScaleProfile
from repro.workload.registry import (
    TPCC_SPEC,
    WorkloadSpec,
    estimate_workload_pages,
    get_workload_entry,
    load_workload,
)


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for work that builds no reference cycle
    (a cell, a snapshot load, a trace recording: DESIGN.md §6).  It is
    re-enabled afterwards, also on a raise, only if it was on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Whether the collector's permanent generation holds this module's freeze.
_FROZEN = False


def _freeze() -> None:
    """Move the heap, the snapshot just loaded included, into the
    collector's permanent generation, so no later collection walks it
    (DESIGN.md §6).  The snapshot holds no reference cycle, so reference
    counting still frees it.  A permanent generation this module did not
    fill (a caller's own ``gc.freeze()``) is left as it is: nothing is
    frozen on top of it, and nothing of it is unfrozen here."""
    global _FROZEN
    if _FROZEN or not gc.get_freeze_count():
        gc.freeze()
        _FROZEN = True


def _thaw() -> None:
    """Undo :func:`_freeze`."""
    global _FROZEN
    if _FROZEN:
        gc.unfreeze()
        _FROZEN = False


@dataclass(frozen=True)
class WarmSnapshot:
    """Pristine post-load state for one (scale, seed, workload).

    ``state`` is whatever the workload entry's ``fork_state`` hook
    extracted from the loaded database handle (TPC-C's undelivered-order
    queues and name span; ``None`` for stateless workloads) — deep-copied
    per fork and fed back through the entry's ``refork`` hook.
    """

    scale: ScaleProfile
    seed: int
    workload: WorkloadSpec
    catalog: Catalog
    tables: dict[str, HeapFile]
    indexes: dict[str, HashIndex]
    disk_slots: dict[int, Any]
    state: Any
    #: Harness seconds the load took (goes with the snapshot on eviction).
    load_seconds: float = 0.0
    #: Backend name -> a persistent store holding ``disk_slots``, encoded by
    #: the first fork on that backend and copied by every later one.  Freed
    #: (temp file included) with the snapshot.
    templates: dict[str, PageStore] = field(default_factory=dict)

    def disk_image(self, store: PageStore) -> dict[int, Any] | PageStore:
        """What ``store`` adopts: the slot map for the memory backend, the
        backend's template store (built on first use) for a persistent one."""
        if not store.persistent:
            return self.disk_slots
        template = self.templates.get(store.backend_name)
        if template is None:
            template = make_page_store(store.backend_name, store.capacity_pages)
            template.adopt_slots(self.disk_slots)
            self.templates[store.backend_name] = template
        return template


#: Per-process memo: (scale, seed, workload) -> WarmSnapshot, least recently
#: used first.  Worker processes build their own entries on first use;
#: nothing here crosses process boundaries.
_SNAPSHOTS: dict[tuple[ScaleProfile, int, WorkloadSpec], WarmSnapshot] = {}

#: Every executed cell forks from the memo, and each entry pins a whole
#: loaded database (~70 MB at BENCH).  Two lets a grid that alternates
#: between two stream identities load each once (DESIGN.md §9).
_SNAPSHOT_LIMIT = 2


def snapshot_load_seconds() -> float:
    """One-time workload load cost, in harness seconds, of the snapshots this
    process holds.  Benchmarks report it separately so sweep timings stop
    charging the fixed load to whichever cell happened to build a snapshot."""
    return sum(snapshot.load_seconds for snapshot in _SNAPSHOTS.values())


def get_snapshot(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> WarmSnapshot:
    """Return the memoized post-load snapshot, building it on first use."""
    workload = TPCC_SPEC if workload is None else workload
    key = (scale, seed, workload)
    snapshot = _SNAPSHOTS.pop(key, None)
    if snapshot is not None:
        _SNAPSHOTS[key] = snapshot  # most recently used last
        return snapshot
    # Evict before loading, not after: the process never holds more than
    # ``_SNAPSHOT_LIMIT`` loaded databases, the one being built included.
    if len(_SNAPSHOTS) >= _SNAPSHOT_LIMIT:
        _thaw()
        while len(_SNAPSHOTS) >= _SNAPSHOT_LIMIT:
            del _SNAPSHOTS[next(iter(_SNAPSHOTS))]
    # The loader's output is independent of every system knob, so any
    # config works for the loading system; hdd-only is the cheapest build.
    config = scaled_reference_config(
        estimate_workload_pages(workload, scale), policy=CachePolicy.NONE
    )
    t0 = time.perf_counter()
    with collector_paused():
        dbms = SimulatedDBMS(config)
        database = load_workload(dbms, scale, seed, workload)
        load_seconds = time.perf_counter() - t0
        snapshot = _SNAPSHOTS[key] = WarmSnapshot(
            scale=scale,
            seed=seed,
            workload=workload,
            catalog=dbms.catalog,
            tables=dbms.tables,
            indexes=dbms.indexes,
            disk_slots=dbms.disk.store.snapshot_slots(),
            state=get_workload_entry(workload.name).fork_state(database),
            load_seconds=load_seconds,
        )
        _freeze()
    return snapshot


def fork_database(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    seed: int,
    workload: WorkloadSpec | None = None,
):
    """Install a private copy of the loaded database into ``dbms``.

    Drop-in replacement for the workload's loader (modulo the
    memoization): the returned database handle and the adopted DBMS state
    are bit-for-bit what a fresh load would have produced.
    """
    workload = TPCC_SPEC if workload is None else workload
    snapshot = get_snapshot(scale, seed, workload)
    catalog, tables, indexes, state = copy.deepcopy(
        (snapshot.catalog, snapshot.tables, snapshot.indexes, snapshot.state)
    )
    dbms.adopt_database_state(
        catalog, tables, indexes, snapshot.disk_image(dbms.disk.store)
    )
    return get_workload_entry(workload.name).refork(dbms, scale, state)


# -- post-warm-up forks -------------------------------------------------------


@dataclass(frozen=True)
class WarmFork:
    """Pristine post-warm-up replay state for one cell identity.

    ``dbms`` is never handed out directly: adoption re-forks it, so the
    cached copy stays untouched however many replays it seeds.  The cursor
    fields restore the owning runner mid-trace.
    """

    dbms: Any
    op_index: int
    arg_index: int
    tx_index: int
    executed: int


#: Cell identity -> WarmFork.  Bounded: sweeps revisit a handful of cell
#: configs, and each entry pins a full warmed system graph.
_WARM_FORKS: dict[tuple, WarmFork] = {}
_WARM_FORK_LIMIT = 16

#: hits / misses for tests and benchmark reporting (plain dict, not OBS:
#: eligible runs always have OBS disabled).
_WARM_FORK_STATS = {"hits": 0, "misses": 0}


def fork_dbms(dbms: Any) -> Any:
    """Deep-copy a warmed DBMS, sharing its immutable bulk.

    One ``deepcopy`` call over the whole system preserves every aliasing
    relationship that matters: the buffer pool's frames *are* the policy's
    frames, the cache's pull callback stays bound to the *clone*, the flash
    volume is one object for the system, its cache and the cache's
    metadata, and an ssd-only log device stays the clone's disk device.
    The flat containers copy themselves at C speed (``__deepcopy__`` of
    :class:`~repro.flashcache.directory.FifoDirectory`,
    :class:`~repro.storage.backing.MemoryPageStore`,
    :class:`~repro.storage.volume.Volume` and
    :class:`~repro.wal.log.LogManager`): they hold only ints or immutable
    values — page images, cache slots, WAL records — which the clone shares.
    The buffer pool copies each frame once and its LRU policy reuses those
    copies (:class:`~repro.buffer.pool.BufferPool`).
    """
    return copy.deepcopy(dbms, {id(dbms.config): dbms.config})


def get_warm_fork(key: tuple) -> WarmFork | None:
    """Return the cached post-warm-up fork for ``key``, if captured."""
    fork = _WARM_FORKS.get(key)
    if fork is None:
        _WARM_FORK_STATS["misses"] += 1
    else:
        _WARM_FORK_STATS["hits"] += 1
    return fork


def put_warm_fork(key: tuple, fork: WarmFork) -> None:
    """Cache a captured fork, evicting the oldest entry at the cap."""
    if key not in _WARM_FORKS and len(_WARM_FORKS) >= _WARM_FORK_LIMIT:
        _WARM_FORKS.pop(next(iter(_WARM_FORKS)))
    _WARM_FORKS[key] = fork


def warm_fork_stats() -> dict[str, int]:
    """Hit/miss counts for the post-warm-up fork cache (this process)."""
    return dict(_WARM_FORK_STATS)


def clear_snapshots() -> None:
    """Drop all memoized snapshots and forks (tests / memory pressure)."""
    _thaw()
    _SNAPSHOTS.clear()
    _WARM_FORKS.clear()
    _WARM_FORK_STATS.update(hits=0, misses=0)
