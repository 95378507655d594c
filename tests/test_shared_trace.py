"""Zero-copy shared traces, post-warm-up forks and replay preparation.

* The shared-memory trace layer (:mod:`repro.sim.trace`) publishes one
  decoded trace that any number of workers attach to zero-copy, replays
  from it match the per-process path exactly, and segments are unlinked
  on normal sweep exit *and* after worker crashes — never leaked.
* A post-warm-up fork (:mod:`repro.sim.warmstate`) seeds an identical
  second replay with the exact state its warm-up would have rebuilt.
* :func:`~repro.sim.replay.prepare_replay` pays and reports each trace
  group's one-time cost.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import SharedTraceExhausted
from repro.obs import OBS
from repro.sim import parallel as parallel_mod
from repro.sim.parallel import CellSpec, _SharedReplayFailed, replay_shared_cell, run_cells
from repro.sim.replay import (
    SharedTraceRecorder,
    TraceRecorder,
    attached_recorder,
    clear_recorders,
    has_recorder,
    prepare_replay,
    replay_cell,
)
from repro.sim.scenario import CrashRecoveryScenario, ServiceScenario, SteadyStateScenario
from repro.sim.trace import leaked_shared_segments, publish_boundary_trace
from repro.sim.warmstate import clear_snapshots, fork_dbms, warm_fork_stats
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY

DB_PAGES = estimate_db_pages(TINY)

FAST = SteadyStateScenario(measure_transactions=120, warmup_min=40, warmup_max=600)


@pytest.fixture(autouse=True)
def _hermetic():
    clear_recorders()
    clear_snapshots()
    yield
    clear_recorders()
    clear_snapshots()


def _spec(policy: CachePolicy, seed: int = 42, fraction: float = 0.08, **over) -> CellSpec:
    params = {"scenario": FAST, **over}
    return CellSpec(
        key=(policy.value, seed, fraction),
        config=scaled_reference_config(DB_PAGES, cache_fraction=fraction, policy=policy),
        scale=TINY,
        seed=seed,
        **params,
    )


# -- shared-memory trace lifecycle -------------------------------------------


def _attach_and_check(handle, expected_ops, expected_args, queue):
    trace = handle.attach()
    queue.put(
        bytes(trace.ops) == bytes(expected_ops)
        and list(trace.args) == list(expected_args)
        and trace.n_transactions == handle.n_transactions
    )
    trace.close()


def _attach_and_crash(handle):
    handle.attach()
    os._exit(3)  # simulated worker crash: no close, no cleanup


def test_shared_trace_attach_in_child_and_unlink_on_release():
    recorder = TraceRecorder(TINY, 42)
    trace = recorder.ensure(30)
    handle = publish_boundary_trace(trace)
    assert handle is not None
    try:
        queue = multiprocessing.Queue()
        child = multiprocessing.Process(
            target=_attach_and_check, args=(handle, trace.ops, trace.args, queue)
        )
        child.start()
        assert queue.get(timeout=30) is True
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        handle.acquire()
        handle.release()
    assert leaked_shared_segments() == []


def test_shared_trace_unlink_after_worker_crash():
    recorder = TraceRecorder(TINY, 42)
    handle = publish_boundary_trace(recorder.ensure(30))
    assert handle is not None
    child = multiprocessing.Process(target=_attach_and_crash, args=(handle,))
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 3
    # The crashed attacher must not have taken the segment down with it,
    # and the owner's unlink still works afterwards.
    handle.acquire()
    handle.release()
    assert leaked_shared_segments() == []
    handle.unlink()  # idempotent


def test_shared_recorder_raises_when_exhausted():
    recorder = TraceRecorder(TINY, 42)
    shared = SharedTraceRecorder(TINY, 42, recorder.ensure(30))
    assert shared.ensure(30).n_transactions >= 30
    with pytest.raises(SharedTraceExhausted):
        shared.ensure(31_000)


def test_replay_shared_cell_reports_exhaustion_instead_of_raising():
    recorder = TraceRecorder(TINY, 42)
    handle = publish_boundary_trace(recorder.ensure(30))  # far below FAST's need
    assert handle is not None
    try:
        spec = dataclasses.replace(_spec(CachePolicy.FACE), shared_trace=handle)
        outcome = replay_shared_cell(spec)
        assert isinstance(outcome, _SharedReplayFailed)
    finally:
        handle.acquire()
        handle.release()
    assert leaked_shared_segments() == []


def test_attached_recorder_caches_per_segment():
    recorder = TraceRecorder(TINY, 42)
    handle = publish_boundary_trace(recorder.ensure(800))
    assert handle is not None
    try:
        spec = dataclasses.replace(_spec(CachePolicy.FACE), shared_trace=handle)
        first = attached_recorder(spec)
        assert attached_recorder(spec) is first  # one attach per process
        replayed = dataclasses.asdict(replay_cell(spec, first))
        direct = dataclasses.asdict(replay_cell(spec, TraceRecorder(TINY, 42)))
        replayed.pop("obs"), direct.pop("obs")
        assert replayed == direct
    finally:
        clear_recorders()  # drop the attachment's views before unlinking
        handle.acquire()
        handle.release()
    assert leaked_shared_segments() == []


# -- multi-worker sweeps over one shared segment -----------------------------


def _shared_grid() -> list[CellSpec]:
    return [
        _spec(policy, fraction=fraction)
        for policy in (CachePolicy.FACE, CachePolicy.FACE_GSC)
        for fraction in (0.06, 0.10)
    ]


def test_multiworker_sweep_bit_identical_and_leak_free():
    specs = _shared_grid()
    serial = run_cells(specs, jobs=1, fast=True)
    clear_recorders()
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.enable()
    try:
        parallel = run_cells(specs, jobs=2, fast=True)
        shared_cells = OBS.counter("replay.shared.cells").value
        exhausted = OBS.counter("replay.shared.exhausted").value
    finally:
        OBS.clear()
        if not was_enabled:
            OBS.disable()
    assert list(parallel) == [s.key for s in specs]
    for key in serial:
        assert dataclasses.asdict(parallel[key]) == dataclasses.asdict(serial[key])
    # Every cell was served from the shared segment (the bound covers the
    # whole group, so the exhaustion fallback is never the expected route).
    assert shared_cells + exhausted == len(specs)
    assert shared_cells > 0
    assert leaked_shared_segments() == []


def _crashing_worker(spec):
    os._exit(13)  # pragma: no cover - runs in a pool worker


def test_multiworker_sweep_survives_worker_crash(monkeypatch):
    # Kill every pool worker at the first shared replay: the pool breaks,
    # the parent re-replays everything itself, results stay complete and
    # identical, and no /dev/shm segment outlives the sweep.
    specs = _shared_grid()
    serial = run_cells(specs, jobs=1, fast=True)
    clear_recorders()
    monkeypatch.setattr(parallel_mod, "replay_shared_cell", _crashing_worker)
    with pytest.warns(RuntimeWarning):
        parallel = run_cells(specs, jobs=2, fast=True)
    for key in serial:
        assert dataclasses.asdict(parallel[key]) == dataclasses.asdict(serial[key])
    assert leaked_shared_segments() == []


# -- post-warm-up fork reuse ---------------------------------------------------


@pytest.mark.parametrize(
    "policy", [CachePolicy.FACE, CachePolicy.LC, CachePolicy.NONE], ids=lambda p: p.value
)
def test_warm_fork_second_replay_bit_identical(policy):
    # The first replay of a cell captures a post-warm-up fork; an identical
    # second replay adopts it (hits == 1) and must produce the exact same
    # RunResult as the replay that really warmed up.
    recorder = TraceRecorder(TINY, 42)
    first = dataclasses.asdict(replay_cell(_spec(policy), recorder))
    second = dataclasses.asdict(replay_cell(_spec(policy), recorder))
    assert warm_fork_stats() == {"hits": 1, "misses": 1}
    first.pop("obs"), second.pop("obs")
    assert second == first


def test_warm_fork_crash_scenario_bit_identical():
    # Crash cells exercise the fork hardest: recovery replays the durable
    # WAL, which forked systems *share* record-for-record.
    scenario = CrashRecoveryScenario(checkpoint_interval=1.0, warmup_min=40, warmup_max=600)
    spec = dataclasses.replace(_spec(CachePolicy.FACE), scenario=scenario)
    recorder = TraceRecorder(TINY, 42)
    first = dataclasses.asdict(replay_cell(spec, recorder))
    second = dataclasses.asdict(replay_cell(spec, recorder))
    assert warm_fork_stats()["hits"] == 1
    first.pop("obs"), second.pop("obs")
    assert second == first


def test_warm_fork_service_scenario_bit_identical():
    # A service cell warms up like a steady one, then records demands from
    # the adopted system and runs the queueing model over them.
    scenario = ServiceScenario(
        n_clients=8, measure_transactions=120, warmup_min=40, warmup_max=600
    )
    spec = dataclasses.replace(_spec(CachePolicy.FACE), scenario=scenario)
    recorder = TraceRecorder(TINY, 42)
    first = dataclasses.asdict(replay_cell(spec, recorder))
    second = dataclasses.asdict(replay_cell(spec, recorder))
    assert warm_fork_stats() == {"hits": 1, "misses": 1}
    first.pop("obs"), second.pop("obs")
    assert second == first


def test_warm_fork_ineligible_with_obs_enabled():
    # OBS runs must execute warm-up for real (post-reset counter set),
    # so they never consult the fork cache at all.
    recorder = TraceRecorder(TINY, 42)
    replay_cell(_spec(CachePolicy.FACE, collect_obs=True), recorder)
    replay_cell(_spec(CachePolicy.FACE, collect_obs=True), recorder)
    assert warm_fork_stats() == {"hits": 0, "misses": 0}


def test_fork_dbms_shares_wal_records_not_spines():
    # fork_dbms must share the immutable bulk (WAL records, page images)
    # while giving the clone private mutable containers.
    recorder = TraceRecorder(TINY, 42)
    spec = _spec(CachePolicy.FACE)
    from repro.sim.replay import ReplayRunner

    runner = ReplayRunner(spec.config, recorder)
    runner.warm_up(40, 600)
    clone = fork_dbms(runner.dbms)
    original = runner.dbms
    assert clone is not original
    assert clone.log._durable is not original.log._durable
    assert len(clone.log._durable) == len(original.log._durable)
    for ours, theirs in zip(clone.log._durable[:50], original.log._durable[:50]):
        assert ours is theirs  # records shared, never copied
    assert clone.buffer._frames is not original.buffer._frames
    # The clone's table holds new frame objects, in the same LRU order.
    assert list(clone.buffer._frames) == list(original.buffer._frames)
    pool_frames = {id(f) for f in clone.buffer._frames.values()}
    assert not pool_frames & {id(f) for f in original.buffer._frames.values()}
    # Mutating the clone must not leak into the original.
    clone.log._durable.append(None)
    assert original.log._durable[-1] is not None


# -- one-time preparation accounting -----------------------------------------


def test_prepare_replay_reports_per_group_cost():
    specs = _shared_grid() + [_spec(CachePolicy.LC, seed=9)]
    assert not has_recorder(TINY, 42)
    report = prepare_replay(specs)
    assert has_recorder(TINY, 42) and has_recorder(TINY, 9)
    assert len(report["groups"]) == 2
    assert report["seconds"] >= sum(g["seconds"] for g in report["groups"]) * 0.5
    for group in report["groups"]:
        assert group["already_live"] is False
        assert group["seconds"] >= 0.0
    # Idempotent: a second call finds the recorders live and is ~free.
    again = prepare_replay(specs)
    assert all(g["already_live"] for g in again["groups"])
