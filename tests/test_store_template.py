"""A forked cell copies its page-store file: the per-backend template.

A persistent backend's forked cell no longer encodes the snapshot's disk
image into its own store: the first fork on a backend encodes it once into
a *template* store held by the snapshot (``WarmSnapshot.disk_image``), and
every later fork copies that file with
:meth:`~repro.storage.persistent.PersistentPageStore.copy_from`
(DESIGN.md §9).  Pinned here:

* ``copy_from`` itself: byte-identical for mmap, validated like
  ``adopt_slots``, and a forked child never deletes its parent's files;
* the template: built once, never written by a cell, gone with its
  snapshot;
* parity: a cell forked from the template equals one whose store was
  populated page by page (the replaced path), OBS included, at any ``jobs``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pathlib
import tempfile

import pytest

import repro.sim.warmstate as warmstate
from repro.core.dbms import SimulatedDBMS
from repro.db import page as page_module
from repro.db.page import Page, PageImage
from repro.errors import OutOfRangeError
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cell, run_cells
from repro.sim.replay import clear_recorders
from repro.storage.persistent import MmapPageStore, SqlitePageStore
from repro.storage.registry import make_page_store
from repro.tpcc.scale import TINY

PERSISTENT = ("mmap", "sqlite")
CHURN = {"n_keys": 2000, "update_fraction": 0.9}


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch, tmp_path):
    """Private temp directory (store files are counted in it), no memo."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    clear_recorders()
    warmstate.clear_snapshots()
    yield
    clear_recorders()
    warmstate.clear_snapshots()


def store_files() -> list[str]:
    return sorted(p.name for p in pathlib.Path(tempfile.gettempdir()).glob("repro-store-*"))


def image(page_id: int, tag: str) -> PageImage:
    return Page(page_id, lsn=page_id, slots={0: (page_id, tag, 0.5)}).to_image()


def _spec(store: str, scenario: str = "steady", seed: int = 5, **over) -> CellSpec:
    params = dict(
        scale=TINY,
        seed=seed,
        workload="ycsb",
        workload_knobs=CHURN,
        measure_transactions=60,
        warmup_min=30,
        warmup_max=60,
        checkpoint_interval=0.05,
        crash_max_transactions=4000,
        page_store=store,
        scenario=scenario,
    )
    params.update(over)
    key = (store, scenario, seed, repr(sorted(over.items())))
    return CellSpec.from_config(key, ExperimentConfig(**params), replay_ok=False)


def _template(spec: CellSpec):
    snapshot = warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
    return snapshot.templates[spec.config.page_store]


# -- copy_from -----------------------------------------------------------------


@pytest.mark.parametrize("backend", PERSISTENT)
def test_copy_holds_the_source_and_stays_independent(backend):
    source = make_page_store(backend, 64)
    source.adopt_slots({lba: image(lba, "v1") for lba in (0, 7, 40)})
    source.put(7, image(7, "v2"))
    source.delete(0)
    target = make_page_store(backend, 64)
    target.put(3, image(3, "replaced"))
    target.copy_from(source)
    assert target.snapshot_slots() == source.snapshot_slots() == {
        7: image(7, "v2"),
        40: image(40, "v1"),
    }
    target.put(41, image(41, "only-in-target"))
    assert 41 not in source and 41 in target
    if backend == "mmap":  # the log, garbage included, is copied as it is
        assert pathlib.Path(target.path).read_bytes().startswith(
            pathlib.Path(source.path).read_bytes()
        )
        reopened = MmapPageStore(64, target.path)
        assert reopened.snapshot_slots() == target.snapshot_slots()


@pytest.mark.parametrize("backend", PERSISTENT)
def test_copy_of_a_too_large_source_leaves_the_target_untouched(backend):
    source = make_page_store(backend, 64)
    source.adopt_slots({0: image(0, "a"), 40: image(40, "b")})
    target = make_page_store(backend, 32)
    target.put(1, image(1, "keep"))
    before = pathlib.Path(target.path).read_bytes()
    with pytest.raises(OutOfRangeError, match="copy_from: lba 40"):
        target.copy_from(source)
    assert target.snapshot_slots() == {1: image(1, "keep")}
    assert pathlib.Path(target.path).read_bytes() == before


@pytest.mark.parametrize("backend", PERSISTENT)
def test_a_forked_child_never_deletes_its_parents_store(backend):
    store = make_page_store(backend, 8)
    store.put(1, image(1, "parent"))
    path = store.path
    pid = os.fork()
    if pid == 0:  # the child drops its inherited copy of the store
        code = 1
        try:
            del store
            gc.collect()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert os.path.exists(path)
    assert store.get(1) == image(1, "parent")
    del store
    assert not os.path.exists(path)  # its own process still cleans up


# -- the template --------------------------------------------------------------


@pytest.mark.parametrize("backend", PERSISTENT)
def test_a_second_fork_encodes_nothing(monkeypatch, backend):
    spec = _spec(backend)
    workload = spec.workload_spec()
    packs, installs = [], []
    real_pack = page_module._pack_page
    monkeypatch.setattr(
        page_module, "_pack_page", lambda *a: packs.append(1) or real_pack(*a)
    )
    for cls in (MmapPageStore, SqlitePageStore):
        real_install = cls._install_slots
        monkeypatch.setattr(
            cls,
            "_install_slots",
            lambda self, slots, real=real_install: installs.append(1) or real(self, slots),
        )
    warmstate.get_snapshot(spec.scale, spec.seed, workload)
    forked = []
    for _ in range(2):
        del packs[:], installs[:]
        dbms = SimulatedDBMS(spec.config)
        warmstate.fork_database(dbms, spec.scale, spec.seed, workload)
        forked.append((len(packs), len(installs), dbms))
    (first_packs, first_installs, _), (packs_2, installs_2, second) = forked
    assert first_installs == 1 and first_packs > 0  # the template, once
    assert (packs_2, installs_2) == (0, 0)
    template = _template(spec)
    assert second.disk.store.snapshot_slots() == template.snapshot_slots()
    if backend == "mmap":
        assert (
            pathlib.Path(second.disk.store.path).read_bytes()
            == pathlib.Path(template.path).read_bytes()
        )


@pytest.mark.parametrize("backend", PERSISTENT)
def test_a_churn_cell_never_writes_the_template(backend):
    spec = _spec(backend)
    first = run_cell(spec)  # builds the template
    template = pathlib.Path(_template(spec).path)
    before = template.read_bytes()
    assert run_cell(spec) == first
    assert first.cache_stats["disk_writes"] + first.cache_stats["flash_writes"] > 0
    assert template.read_bytes() == before


def test_templates_go_with_their_snapshot():
    for backend in PERSISTENT:
        run_cell(_spec(backend))
    held = {os.path.basename(_template(_spec(backend)).path) for backend in PERSISTENT}
    # Cells free their own stores; what is left is the two templates.
    assert {name.removesuffix("-journal") for name in store_files()} == held
    warmstate.clear_snapshots()
    assert store_files() == []

    limit = warmstate._SNAPSHOT_LIMIT
    for seed in range(limit + 1):
        run_cell(_spec("mmap", seed=seed))
        assert len(store_files()) == min(seed + 1, limit)
    assert [key[1] for key in warmstate._SNAPSHOTS] == list(range(1, limit + 1))
    warmstate.clear_snapshots()
    assert store_files() == []


# -- parity --------------------------------------------------------------------


@pytest.mark.parametrize("backend", PERSISTENT)
@pytest.mark.parametrize("scenario", ["steady", "crash"])
def test_obs_equals_a_page_by_page_populated_store(monkeypatch, backend, scenario):
    """``collect_obs`` results match the replaced path name for name: a
    persistent store filled by ``adopt_slots`` from the snapshot's map."""
    spec = _spec(backend, scenario, collect_obs=True)
    warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())  # load outside
    cold, warm = run_cell(spec), run_cell(spec)  # build, then copy, the template
    with monkeypatch.context() as replaced:
        replaced.setattr(
            warmstate.WarmSnapshot, "disk_image", lambda self, store: self.disk_slots
        )
        reference = run_cell(spec)
    assert cold.obs.counters and cold.obs.as_flat().keys() == reference.obs.as_flat().keys()
    assert cold == warm == reference


def test_a_pool_sweep_after_templates_matches_serial_and_leaves_no_file():
    specs = [
        _spec(backend, scenario, seed=seed, policy=policy)
        for backend in PERSISTENT
        for scenario in ("steady", "crash")
        for seed, policy in ((5, "face+gsc"), (6, "lc"))
    ]
    run_cell(specs[0])  # in-process: the pool's workers inherit this template
    held = store_files()
    assert held
    # Seed 6 has no snapshot here: each worker builds, and must remove, its own.
    parallel = run_cells(specs, jobs=2)
    assert store_files() == held
    serial = run_cells(specs, jobs=1)
    assert [dataclasses.asdict(r) for r in parallel.values()] == [
        dataclasses.asdict(r) for r in serial.values()
    ]
    warmstate.clear_snapshots()
    assert store_files() == []
