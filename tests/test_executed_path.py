"""The executed cell does nothing twice (ISSUE 23).

``run_cell`` — the one worker behind ``run_cells(fast=False)``, the
non-replayed cells of ``fast=True`` and the parity reference of every
replay pin — forks the memoised post-load snapshot instead of re-running
the workload's loader, frees its DBMS by reference count, and sizes each
WAL update record once.  Each property here is pinned against the
from-scratch path it replaced, or by a count that would move if the work
came back.  Since nothing a cell builds forms a reference cycle, every
cell, executed or replayed, runs with the cyclic collector paused, and so
does the set-up it forks from: the snapshot load and the trace recording.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro.sim.runner as runner_mod
import repro.sim.warmstate as warmstate
import repro.wal.records as records_mod
from repro.core.dbms import SimulatedDBMS
from repro.db.page import PageImage
from repro.errors import ConfigError
from repro.flashcache.builders import available_policies
from repro.obs import OBS
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cell, run_cell_warm, run_cells
from repro.sim.replay import TraceRecorder, clear_recorders, get_recorder, replay_cell
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import SteadyStateScenario
from repro.storage.hdd import DiskDevice
from repro.storage.profiles import HDD_CHEETAH_15K, PAGE_SIZE
from repro.tpcc.scale import TINY
from repro.wal.log import LogManager
from repro.wal.records import UpdateRecord
from repro.workload.registry import estimate_workload_pages

KNOBS = {
    "tpcc": {},
    "ycsb": {"n_keys": 2000, "update_fraction": 0.5},
    "tpch-scan": {},
}


@pytest.fixture(autouse=True)
def _hermetic():
    """No memo shared with another test."""
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
        page_store=store,
        scenario=scenario,
    )
    if scenario == "service":
        params["n_clients"] = 8
    params.update(over)
    key = key or (workload, scenario, store, repr(sorted(over.items())))
    return CellSpec.from_config(key, ExperimentConfig(**params), replay_ok=replay_ok)


def _fresh(spec: CellSpec):
    """The from-scratch reference: ``ExperimentRunner`` without a loader."""
    runner = ExperimentRunner(
        spec.config, spec.scale, seed=spec.seed, workload=spec.workload_spec()
    )
    return spec.resolve_scenario().execute(runner)


@contextlib.contextmanager
def _collector(enabled: bool):
    """The caller's collector state for the body; restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


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
    # An evicted snapshot must be freed by count, not by a pass.
    with _collector(enabled=False):
        for spec in specs:
            run_cell(spec)
            born.extend(
                weakref.ref(snapshot)
                for snapshot in warmstate._SNAPSHOTS.values()
                if all(ref() is not snapshot for ref in born)
            )
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


# -- (B) the DBMS dies with its runner, and the collector stays out ------------


def _collected_types() -> set[str]:
    """Type names a full collection reclaims right now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _prepared(spec: CellSpec, path: str):
    """Set-up outside the cell: the load snapshot, and for a replayed cell a
    recorder holding the whole trace it reads.  Returns the cell to run."""
    warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
    if path == "executed":
        return lambda: run_cell(spec)
    recorder = get_recorder(spec.scale, spec.seed, spec.workload_spec())
    recorder.ensure(spec.resolve_scenario().trace_bound())
    return lambda: replay_cell(spec, recorder)


def _collections_inside(monkeypatch, cell) -> int:
    """Collections that start while ``cell()`` runs, up to the moment it
    turns the caller's collector back on (the young objects it kept are then
    the caller's to walk)."""
    started: list[int] = []
    when_enabled: list[int] = []
    real_enable = gc.enable

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def enable():
        when_enabled.append(len(started))
        real_enable()

    gc.callbacks.append(hook)
    try:
        with monkeypatch.context() as during_cell:
            during_cell.setattr(gc, "enable", enable)
            assert cell() is not None
    finally:
        gc.callbacks.remove(hook)
    return when_enabled[0] if when_enabled else len(started)


@pytest.mark.parametrize("store", ["memory", "mmap", "sqlite"])
@pytest.mark.parametrize("scenario", ["steady", "crash", "service"])
@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_no_collection_starts_inside_a_cell(monkeypatch, path, scenario, store):
    cell = _prepared(_spec(scenario=scenario, store=store), path)
    with _collector(enabled=True):
        gc.collect()
        assert _collections_inside(monkeypatch, cell) == 0
        assert gc.isenabled()


@pytest.mark.parametrize("collect_obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_a_cell_leaves_no_garbage(monkeypatch, path, policy, collect_obs):
    monkeypatch.setenv("REPRO_REPLAY_WARMFORK", "0")  # a kept fork is a memo, not a leak
    spec = _spec(policy=policy, buffer_fraction=0.01, collect_obs=collect_obs)
    cell = _prepared(spec, path)
    gc.collect()
    try:
        assert cell() is not None
        assert _collected_types() == set()
    finally:
        OBS.clear()  # an OBS cell leaves its metrics registered


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_a_cell_that_raises_restores_the_collector(path, enabled):
    # A crash schedule that exhausts max_transactions raises mid-cell.
    spec = _spec(scenario="crash")
    spec = dataclasses.replace(
        spec, scenario=dataclasses.replace(spec.scenario, max_transactions=5)
    )
    cell = _prepared(spec, path)
    with _collector(enabled):
        with pytest.raises(ConfigError, match="never reached its kill point"):
            cell()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_nested_run_cells_leave_the_collector_as_found(monkeypatch, enabled):
    outer, inner = _spec(key=("outer",)), _spec(key=("inner",), measure_transactions=30)
    seen: list[bool] = []
    real_execute = SteadyStateScenario.execute

    def nesting(self, runner):
        if not seen:  # the outer cell runs the inner one's whole sweep
            seen.append(gc.isenabled())
            run_cells([inner], fast=False)
            seen.append(gc.isenabled())
        return real_execute(self, runner)

    monkeypatch.setattr(SteadyStateScenario, "execute", nesting)
    with _collector(enabled):
        run_cells([outer], fast=False)
        assert gc.isenabled() is enabled
    assert seen == [False, False]


def _set_up_step(spec: CellSpec, step: str):
    """One set-up step as a call: the snapshot load, or (with the load done
    outside it) the recording of the trace the cell reads."""
    if step == "load":
        return lambda: warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
    recorder = get_recorder(spec.scale, spec.seed, spec.workload_spec())
    return lambda: recorder.ensure(spec.resolve_scenario().trace_bound())


@pytest.mark.parametrize("workload", sorted(KNOBS))
@pytest.mark.parametrize("step", ["load", "record"])
def test_no_collection_starts_inside_set_up(monkeypatch, step, workload):
    call = _set_up_step(_spec(workload), step)
    with _collector(enabled=True):
        gc.collect()
        assert _collections_inside(monkeypatch, call) == 0
        assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("step", ["load", "record"])
def test_set_up_that_raises_restores_the_collector(monkeypatch, step, enabled):
    spec = _spec()
    call = _set_up_step(spec, step)
    seen: list[bool] = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("set-up failed")

    if step == "load":
        monkeypatch.setattr(warmstate, "load_workload", failing)
    else:
        monkeypatch.setattr(TraceRecorder, "_record_one", failing)
    with _collector(enabled):
        with pytest.raises(RuntimeError, match="set-up failed"):
            call()
        assert gc.isenabled() is enabled
    assert seen == [False]


@pytest.mark.parametrize("workload", sorted(KNOBS))
def test_a_load_leaves_no_garbage(workload):
    spec = _spec(workload)
    estimate_workload_pages.cache_clear()  # its schema probe is part of the load
    gc.collect()
    # With the caller's collector off, no collection runs as the pause ends:
    # whatever the load left is still there for this one to find, once the
    # load's freeze is undone.
    with _collector(enabled=False):
        assert warmstate.get_snapshot(spec.scale, spec.seed, spec.workload_spec())
        gc.unfreeze()
        assert _collected_types() == set()


@pytest.mark.parametrize("policy", ["face+gsc", "lc"])
@pytest.mark.parametrize("scenario", ["steady", "crash"])
@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_cell_frees_its_system_by_reference_count(monkeypatch, path, scenario, policy):
    monkeypatch.setenv("REPRO_REPLAY_WARMFORK", "0")  # a kept fork is a memo, not a leak
    spec = _spec(scenario=scenario, policy=policy, buffer_fraction=0.01)
    cell = _prepared(spec, path)

    born: list[weakref.ref] = []
    real_init = SimulatedDBMS.__init__

    def watched_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        born.extend((weakref.ref(self), weakref.ref(self.cache)))

    monkeypatch.setattr(SimulatedDBMS, "__init__", watched_init)
    gc.collect()
    with _collector(enabled=False), monkeypatch.context() as during_cell:
        # By count means no pass at all: not the thresholds', not a call's.
        during_cell.setattr(gc, "collect", lambda *args: pytest.fail("gc.collect()"))
        result = cell()
    # The crash cell's system is both the crashed and the restarted one.
    assert result is not None and len(born) == 2
    assert [ref() for ref in born] == [None, None]
    assert _collected_types() == set()


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
