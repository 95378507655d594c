"""The executed cell does nothing twice (ISSUE 23).

``run_cell`` — the one worker behind ``run_cells(fast=False)``, the
non-replayed cells of ``fast=True`` and the parity reference of every
replay pin — forks the memoised post-load snapshot instead of re-running
the workload's loader, frees its DBMS by reference count, and sizes each
WAL update record once.  Each property here is pinned against the
from-scratch path it replaced, or by a count that would move if the work
came back.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro.sim.runner as runner_mod
import repro.sim.warmstate as warmstate
import repro.wal.records as records_mod
from repro.buffer.frame import Frame
from repro.core.dbms import SimulatedDBMS
from repro.db.page import PageImage
from repro.flashcache.base import FlashCacheBase
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cell, run_cell_warm, run_cells
from repro.sim.replay import clear_recorders, get_recorder, replay_cell
from repro.sim.runner import ExperimentRunner
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K, PAGE_SIZE
from repro.tpcc.scale import TINY
from repro.wal.log import LogManager
from repro.wal.records import UpdateRecord

KNOBS = {
    "tpcc": {},
    "ycsb": {"n_keys": 2000, "update_fraction": 0.5},
    "tpch-scan": {},
}


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    """No memo shared with another test; no on-disk trace cache."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    clear_recorders()
    warmstate.clear_snapshots()
    yield
    clear_recorders()
    warmstate.clear_snapshots()


def _spec(
    workload: str = "tpcc",
    scenario: str = "steady",
    store: str = "memory",
    key: tuple | None = None,
    replay_ok: bool = True,
    **over,
) -> CellSpec:
    params = dict(
        scale=TINY,
        seed=5,
        workload=workload,
        workload_knobs=KNOBS[workload],
        measure_transactions=60,
        warmup_min=30,
        warmup_max=60,
        checkpoint_interval=0.05,
        crash_max_transactions=4000,
        n_clients=8,
        page_store=store,
        scenario=scenario,
    )
    params.update(over)
    key = key or (workload, scenario, store, repr(sorted(over.items())))
    return CellSpec.from_config(key, ExperimentConfig(**params), replay_ok=replay_ok)


def _fresh(spec: CellSpec):
    """The from-scratch reference: ``ExperimentRunner`` without a loader."""
    runner = ExperimentRunner(
        spec.config, spec.scale, seed=spec.seed, workload=spec.workload_spec()
    )
    return spec.resolve_scenario().execute(runner)


@pytest.fixture
def loads(monkeypatch):
    """Every ``load_workload`` call, from either module that makes one."""
    calls: list[tuple] = []
    real = warmstate.load_workload

    def counted(dbms, scale, seed, workload):
        calls.append((scale, seed, workload))
        return real(dbms, scale, seed, workload)

    monkeypatch.setattr(warmstate, "load_workload", counted)
    monkeypatch.setattr(runner_mod, "load_workload", counted)
    return calls


# -- (A) one worker, forked from the post-load snapshot ------------------------


def test_one_worker_behind_both_names():
    assert run_cell_warm is run_cell


def test_same_stream_cells_load_once(loads):
    specs = [
        _spec(policy=policy, cache_fraction=fraction)
        for policy in ("face+gsc", "lc")
        for fraction in (0.08, 0.16)
    ]
    assert len(specs) > 1
    first = run_cells(specs, fast=False)
    assert len(loads) == 1
    again = run_cells(specs, fast=False)
    assert len(loads) == 1
    assert again == first
    # The reference path still loads from scratch.
    _fresh(specs[0])
    assert len(loads) == 2


def _assert_fork_equals_fresh_load(spec: CellSpec, loads: list) -> None:
    built = dataclasses.asdict(run_cell(spec))  # builds the snapshot, forks it
    forked = dataclasses.asdict(run_cell(spec))
    assert len(loads) == 1
    fresh = dataclasses.asdict(_fresh(spec))
    assert len(loads) == 2
    assert built == forked == fresh


@pytest.mark.parametrize("scenario", ["steady", "crash", "service"])
@pytest.mark.parametrize("workload", sorted(KNOBS))
def test_fork_equals_fresh_load(workload, scenario, loads):
    _assert_fork_equals_fresh_load(_spec(workload, scenario), loads)


@pytest.mark.parametrize("store", ["mmap", "sqlite"])
def test_fork_equals_fresh_load_on_persistent_store(store, loads):
    # The first fork builds the backend's template, the second copies it.
    for scenario in ("steady", "crash"):
        warmstate.clear_snapshots()
        del loads[:]
        spec = _spec("tpcc", scenario, store)
        _assert_fork_equals_fresh_load(spec, loads)
        snapshot = warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
        assert list(snapshot.templates) == [store]


@pytest.mark.parametrize(
    "spec",
    [
        _spec("ycsb", workload_knobs={"n_keys": 2000, "update_fraction": 0.9}),
        _spec("tpcc"),
    ],
    ids=["ycsb-churn", "tpcc"],
)
def test_cell_never_dirties_the_snapshot(spec, loads):
    first = run_cell(spec)
    snapshot = warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
    before = {
        lba: (image, dict(image.slots)) for lba, image in snapshot.disk_slots.items()
    }
    assert before and first.transactions > 0
    assert run_cell(spec) == first
    assert len(loads) == 1  # both cells forked the snapshot examined here
    after = snapshot.disk_slots
    assert after.keys() == before.keys()
    for lba, (image, slots) in before.items():
        assert isinstance(image, PageImage)
        assert after[lba] is image
        assert image.slots == slots


# -- snapshot memo: bounded, and out of the cell's OBS bracket ------------------


def test_snapshot_bookkeeping_stays_out_of_cell_obs():
    spec = _spec(collect_obs=True, replay_ok=False)
    cold = run_cells([spec], fast=True)[spec.key]
    warm = run_cells([spec], fast=True)[spec.key]
    assert warmstate.snapshot_stats() == {"hits": 1, "misses": 1}
    assert warmstate.snapshot_load_seconds() > 0
    assert cold.obs is not None and cold.obs == warm.obs
    assert cold.obs.counters
    assert not [name for name in cold.obs.as_flat() if name.startswith("replay.")]
    assert cold == warm == run_cells([spec], fast=False)[spec.key]


def test_memo_never_holds_more_than_its_bound(monkeypatch):
    limit = warmstate._SNAPSHOT_LIMIT
    born: list[weakref.ref] = []
    peaks: list[tuple[int, int]] = []
    real = warmstate.load_workload

    def watched(dbms, scale, seed, workload):
        # The moment of peak: the database being loaded is one more.
        live = sum(ref() is not None for ref in born)
        peaks.append((len(warmstate._SNAPSHOTS), live))
        return real(dbms, scale, seed, workload)

    monkeypatch.setattr(warmstate, "load_workload", watched)
    specs = [_spec(seed=seed, key=("seed", seed)) for seed in range(2 * limit + 1)]
    was_enabled = gc.isenabled()
    gc.disable()  # an evicted snapshot must be freed by count, not by a pass
    try:
        for spec in specs:
            run_cell(spec)
            born.extend(
                weakref.ref(snapshot)
                for snapshot in warmstate._SNAPSHOTS.values()
                if all(ref() is not snapshot for ref in born)
            )
    finally:
        if was_enabled:
            gc.enable()
    assert len(peaks) == len(specs)  # every seed was loaded, once
    assert max(held for held, _ in peaks) == limit - 1
    assert max(live for _, live in peaks) == limit - 1
    assert len(warmstate._SNAPSHOTS) == limit
    # Least recently used out: the survivors are the last ``limit`` seeds.
    assert [key[1] for key in warmstate._SNAPSHOTS] == [
        spec.seed for spec in specs[-limit:]
    ]
    if limit >= 2:
        # A hit refreshes its entry: the one after it is now the next to go.
        run_cell(specs[-limit])
        run_cell(specs[0])
        held = [key[1] for key in warmstate._SNAPSHOTS]
        assert specs[-limit].seed in held and specs[-limit + 1].seed not in held
    warmstate.clear_snapshots()
    assert not warmstate._SNAPSHOTS and warmstate.snapshot_load_seconds() == 0.0
    assert warmstate.snapshot_stats() == {"hits": 0, "misses": 0}


# -- (B) the DBMS dies with its runner -----------------------------------------


def _collected_types() -> set[str]:
    """Type names a full collection reclaims right now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("policy", ["face+gsc", "lc"])
@pytest.mark.parametrize("scenario", ["steady", "crash"])
@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_cell_frees_its_system_by_reference_count(monkeypatch, path, scenario, policy):
    monkeypatch.setenv("REPRO_REPLAY_WARMFORK", "0")  # a kept fork is a memo, not a leak
    spec = _spec(scenario=scenario, policy=policy, buffer_fraction=0.01)
    recorder = None
    if path == "replayed":
        recorder = get_recorder(spec.scale, spec.seed, spec.workload_spec())
        recorder.ensure(spec.resolve_scenario().trace_bound())
    warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())

    born: list[weakref.ref] = []
    real_init = SimulatedDBMS.__init__

    def watched_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        born.extend((weakref.ref(self), weakref.ref(self.cache)))

    monkeypatch.setattr(SimulatedDBMS, "__init__", watched_init)
    collect = gc.collect
    collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with monkeypatch.context() as during_cell:
            # By count means no pass at all: not the thresholds', not a call's.
            during_cell.setattr(gc, "collect", lambda *args: pytest.fail("gc.collect()"))
            result = replay_cell(spec, recorder) if recorder else run_cell(spec)
        # The crash cell's system is both the crashed and the restarted one.
        assert result is not None and len(born) == 2
        assert [ref() for ref in born] == [None, None]
        cyclic = _collected_types()
    finally:
        if was_enabled:
            gc.enable()
    system_types = {SimulatedDBMS.__name__, Frame.__name__, "Page", "LogManager"} | {
        cls.__name__ for cls in _subclasses(FlashCacheBase)
    }
    assert not cyclic & system_types, cyclic & system_types


def _subclasses(cls: type) -> set[type]:
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


# -- (C) a WAL update record is sized once ------------------------------------


def _reference_bytes(value) -> int:
    """The recursive definition ``records._value_bytes`` must keep computing."""
    if type(value) is tuple:
        return 3 + sum(_reference_bytes(v) for v in value)
    if type(value) is str:
        return 5 + len(value)
    if value is None:
        return 1
    return 9


_scalars = st.one_of(
    st.integers(), st.booleans(), st.floats(allow_nan=False), st.none(), st.text(max_size=12)
)
_rows = st.one_of(
    st.none(),
    st.lists(
        st.one_of(_scalars, st.lists(_scalars, max_size=3).map(tuple)), max_size=8
    ).map(tuple),
)
_slot_keys = st.one_of(
    st.integers(0, 500), st.text(max_size=6), st.lists(_scalars, max_size=3).map(tuple)
)


@settings(max_examples=200, deadline=None)
@given(slot=_slot_keys, before=_rows, after=_rows, fpw=st.booleans())
@example(slot=(1, "é"), before=(), after=("", "é", None, True, 1.5, (1, ("x",))), fpw=True)
def test_record_size_matches_the_recursive_definition(slot, before, after, fpw):
    record = UpdateRecord(7, 1, 3, slot, before, after, PageImage(3, 7, {}) if fpw else None)
    payload = 12 + sum(_reference_bytes(v) for v in (slot, before, after))
    assert record.payload_bytes == payload
    assert record.size_bytes() == records_mod.BASE_RECORD_BYTES + payload + fpw * PAGE_SIZE
    sized = UpdateRecord(7, 1, 3, payload_bytes=payload)
    assert sized.size_bytes() == records_mod.BASE_RECORD_BYTES + payload


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), _rows, _rows, st.booleans()), max_size=30))
def test_tail_bytes_track_the_tail(updates):
    log = LogManager(DiskDevice(HDD_CHEETAH_15K, 4096))
    for page_id, before, after, checkpoint in updates:
        record = log.log_update(1, page_id, 0, before, after)
        if log.take_fpw(page_id):
            assert log.attach_full_page_image(record, PageImage(page_id, record.lsn, {})) is record
        assert log._tail_bytes == sum(r.size_bytes() for r in log._tail)
        if checkpoint:
            log.log_checkpoint(frozenset())
            assert log._tail_bytes == 0 and not log._tail


def test_one_row_walk_per_logged_update(monkeypatch):
    walks: list[int] = []
    real = records_mod.update_payload_bytes

    def counted(slot, before, after):
        walks.append(1)
        return real(slot, before, after)

    monkeypatch.setattr(records_mod, "update_payload_bytes", counted)
    logged: list[UpdateRecord] = []
    real_log_update = LogManager.log_update

    def watched_log_update(self, *args):
        record = real_log_update(self, *args)
        logged.append(record)
        return record

    monkeypatch.setattr(LogManager, "log_update", watched_log_update)
    checkpoints: list[int] = []
    real_log_checkpoint = LogManager.log_checkpoint

    def watched_log_checkpoint(self, *args, **kwargs):
        checkpoints.append(1)
        return real_log_checkpoint(self, *args, **kwargs)

    monkeypatch.setattr(LogManager, "log_checkpoint", watched_log_checkpoint)
    spec = _spec(measure_transactions=150, checkpoint_interval=0.02)
    warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
    del walks[:], logged[:]
    run_cell(spec)
    assert checkpoints
    assert sum(record.page_image is not None for record in logged) > 0
    assert len(walks) == len(logged) > 0
