"""What a process pays before its first cell: imports and the collector.

* Importing the package loads none of the pool machinery, ``sqlite3`` or
  ``csv``: each is imported where it is first used (a ``jobs > 1`` grid,
  the sqlite store, a persistent store's finalizer, the CSV export).
* A snapshot load ends with ``gc.freeze()``: the acyclic database it built
  goes to the collector's permanent generation, so no later collection
  walks it.  ``clear_snapshots()`` and a memo eviction undo that freeze,
  and only that one (DESIGN.md §6).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro.sim.warmstate as warmstate
from repro.tpcc.scale import TINY
from repro.workload.registry import workload_spec

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a process imports only on the path that uses them.
LAZY = ("sqlite3", "multiprocessing", "concurrent.futures", "csv")


def test_importing_the_package_loads_no_lazy_module():
    code = (
        "import json, sys; import repro, repro.sim.parallel, repro.storage; "
        f"print(json.dumps(sorted(set({LAZY!r}) & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert json.loads(out) == []


@pytest.fixture(autouse=True)
def _no_memo():
    """Each test starts and ends with no snapshot, and so no freeze."""
    warmstate.clear_snapshots()
    yield
    warmstate.clear_snapshots()


def _load(seed: int = 3):
    return warmstate.get_snapshot(TINY, seed, workload_spec("ycsb", {"n_keys": 3000}))


class _Node:
    """A weak-referenceable object to build a reference cycle from."""


def test_no_collection_after_a_load_walks_the_snapshot():
    """A ``gc.callbacks`` census: every collection that starts after the
    load, automatic or asked for, walks none of the snapshot's objects."""
    snapshot = _load()
    loaded = {id(snapshot.catalog), id(snapshot.tables), id(snapshot.indexes),
              id(snapshot.disk_slots)}
    loaded.update(id(image) for image in snapshot.disk_slots.values())
    walked: list[int] = []
    seen: set[int] = set()

    def census(phase, info):
        if phase == "start":
            ids = {id(obj) for g in range(info["generation"] + 1) for obj in gc.get_objects(g)}
            walked.append(len(ids))
            seen.update(ids & loaded)

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(census)
    try:
        junk = [[n] for n in range(5 * gc.get_threshold()[0])]  # automatic collections
        for generation in range(3):
            gc.collect(generation)
    finally:
        gc.callbacks.remove(census)
        if not was_enabled:
            gc.disable()
    del junk
    assert len(walked) > 3
    assert seen == set()


def test_clear_undoes_the_freeze_of_every_load():
    before = gc.get_freeze_count()
    _load(3)
    frozen = gc.get_freeze_count()
    assert frozen > before
    _load(4)
    _load(5)  # evicts seed 3: thaw, load, freeze again
    assert len(warmstate._SNAPSHOTS) == warmstate._SNAPSHOT_LIMIT
    assert gc.get_freeze_count() >= frozen
    warmstate.clear_snapshots()
    assert gc.get_freeze_count() == before


def test_a_cycle_built_before_a_load_is_collected_after_the_clear():
    was_enabled = gc.isenabled()
    gc.disable()  # no collection may find the cycle before the load
    try:
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        _load()
        gc.collect()
        assert ref() is not None  # frozen with the heap: the load's freeze
        warmstate.clear_snapshots()
        gc.collect()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_callers_freeze_is_left_as_found():
    gc.freeze()
    try:
        theirs = gc.get_freeze_count()
        _load(3)
        assert gc.get_freeze_count() == theirs  # the load froze nothing on top
        _load(4)
        _load(5)  # an eviction leaves the caller's freeze too
        warmstate.clear_snapshots()
        assert gc.get_freeze_count() == theirs
    finally:
        gc.unfreeze()
