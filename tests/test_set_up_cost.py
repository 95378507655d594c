"""What a process pays before its first cell: imports and the collector.

* Importing the package loads none of the pool machinery, ``sqlite3`` or
  ``csv``: each is imported where it is first used (a ``jobs > 1`` grid,
  the sqlite store, a persistent store's finalizer, the CSV export).
* Declaring a grid loads no engine module (DESIGN.md §6): the imports
  ``perf/workloads.py`` declares its grids with, ``python -m repro --help``
  and a grid the CLI refuses load none of the buffer pool, the policies,
  the stores, the WAL, restart or the runners.  The package root resolves
  its names on first use.
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


#: Engine modules: loaded where a cell is built or run, never by declaring
#: a grid.
ENGINE = (
    "repro.core.dbms",
    "repro.buffer.pool",
    "repro.flashcache.registry",
    "repro.flashcache.mvfifo",
    "repro.storage.persistent",
    "repro.storage.volume",
    "repro.wal.log",
    "repro.recovery.restart",
    "repro.sim.runner",
    "repro.sim.replay",
    "repro.sim.trace",
    "repro.sim.warmstate",
    "repro.sim.service",
)

#: The workloads' drivers, loaders and heap arithmetic: a grid declares its
#: workloads by name, knobs and presets (``repro.workload.registry``) and
#: loads these only where a cell builds an entry.
WORKLOAD_ENGINE = (
    "repro.tpcc.driver",
    "repro.tpcc.loader",
    "repro.tpcc.transactions",
    "repro.workload.tpch",
    "repro.db.heap",
)

#: What ``perf/workloads.py`` imports from the package to declare its grids.
GRID_IMPORTS = (
    "repro.sim.experiment",
    "repro.sim.parallel",
    "repro.tpcc.scale",
    "repro.workload.ycsb",
)


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def test_declaring_a_grid_loads_no_engine_module():
    loaded = _fresh(
        f"import json, sys; import {', '.join(GRID_IMPORTS)}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    # Nor the TPC-C loader: the workload registry imports it when it first
    # lists the workloads, and YCSB where it loads a table.
    assert not {*ENGINE, "repro.tpcc.loader"} & set(loaded)
    assert len(loaded) <= 30, loaded


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["--scale", "tiny", "run", "n_clients=1,8"], 2),
])
def test_cli_help_and_a_refused_grid_load_no_engine_module(argv, status):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == status, done.stderr[-2000:]
    # ``-X importtime`` writes one ``import time: self | cumulative | name``
    # line per module it loads.
    loaded = {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.cli" in loaded
    assert not set(ENGINE) & loaded
    assert not set(WORKLOAD_ENGINE) & loaded


def test_the_package_root_resolves_every_name_on_first_use():
    before, missing, listed = _fresh(
        "import json, sys; import repro; "
        "before = sorted(m for m in sys.modules if m.startswith('repro.')); "
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]; "
        "listed = [n for n in repro.__all__ if n not in dir(repro)]; "
        "print(json.dumps([before, missing, listed]))"
    )
    assert before == []  # ``import repro`` loads no submodule
    assert missing == [] and listed == []


def test_deleted_names_stay_deleted_in_a_fresh_interpreter():
    # Nothing imported first: a lazy name that resolved a deleted one would
    # show here, not after the rest of the suite has loaded every module.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])}
    subprocess.run(
        [sys.executable, "-c",
         "from tests.test_tree_pins import test_deleted_names_stay_deleted as t; t()"],
        env=env, check=True,
    )


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
