"""Trace-replay fast path: bit-identical parity with full execution.

The replay engine's whole value rests on one claim (ISSUE: trace-replay
tentpole): a cell served from the recorded boundary trace produces the
*same* :class:`~repro.sim.runner.RunResult` — every simulated metric, to
the last bit — as full execution of the same :class:`CellSpec`.  These
tests pin that claim for every cache policy, for both DRAM replacement
policies (the LRU fast loop and the exact fallback loop), with and without
interval checkpoints, and through the ``run_cells(..., fast=True)``
orchestration including its warm-fork fallback path and the persistent
trace cache.

Parity is asserted with ``dataclasses.asdict`` equality, excluding only
``obs``: observability snapshots are compared on the simulated-metric
namespaces (``flashcache.``, ``buffer.pool.``, ``wal.``), because the
``replay.*`` namespace intentionally describes the replay machinery itself
and has no full-execution counterpart.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.obs import OBS
from repro.sim.parallel import CellSpec, run_cell, run_cell_warm, run_cells
from repro.sim.replay import (
    TraceRecorder,
    cached_trace_exists,
    clear_recorders,
    list_cached_traces,
    prune_trace_cache,
    remove_cached_traces,
    replay_cell,
)
from repro.sim.scenario import SteadyStateScenario
from repro.sim.warmstate import clear_snapshots
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY, ScaleProfile
from repro.workload.registry import estimate_workload_pages, workload_spec

DB_PAGES = estimate_db_pages(TINY)

#: A scale larger than TINY in every segment, still cheap to record.
LARGER = ScaleProfile(
    warehouses=1,
    districts_per_warehouse=4,
    customers_per_district=60,
    items=400,
    orders_per_district=60,
)

#: Simulated-metric namespaces whose obs snapshots must match exactly;
#: ``replay.*`` is machinery telemetry and is excluded by construction.
#: ``recovery.*`` is included: a replayed restart drives the exact same
#: ARIES phases as a full one (crash cells below).
PARITY_PREFIXES = ("flashcache.", "buffer.pool.", "wal.", "recovery.")

#: Short but non-trivial protocol: long enough to fill the small flash
#: cache, trigger evictions and WAL forces on every policy.
FAST = SteadyStateScenario(measure_transactions=120, warmup_min=40, warmup_max=600)


@pytest.fixture(autouse=True)
def _hermetic():
    """No cross-test recorder/snapshot sharing."""
    clear_recorders()
    clear_snapshots()
    yield
    clear_recorders()
    clear_snapshots()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private on-disk trace cache (overrides ``_hermetic``'s ``0``)."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    return tmp_path


def _spec(policy: CachePolicy, seed: int = 42, fraction: float = 0.08, **over) -> CellSpec:
    params = {"scenario": FAST, **over}
    config_over = params.pop("config_overrides", {})
    return CellSpec(
        key=(policy.value, seed, fraction) + tuple(sorted(config_over)),
        config=scaled_reference_config(
            DB_PAGES, cache_fraction=fraction, policy=policy, **config_over
        ),
        scale=TINY,
        seed=seed,
        **params,
    )


def _parity(spec: CellSpec) -> None:
    full = dataclasses.asdict(run_cell(spec))
    replayed = dataclasses.asdict(replay_cell(spec, TraceRecorder(TINY, spec.seed)))
    full_obs, replay_obs = full.pop("obs"), replayed.pop("obs")
    assert replayed == full
    if full_obs is not None:
        for name, value in full_obs["counters"].items():
            if name.startswith(PARITY_PREFIXES):
                assert replay_obs["counters"].get(name) == value, name
        for name, value in replay_obs["counters"].items():
            if name.startswith(PARITY_PREFIXES):
                assert full_obs["counters"].get(name) == value, name


# -- the headline property: every policy, two seeds --------------------------


@pytest.mark.parametrize("policy", list(CachePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("seed", [42, 7])
def test_replay_parity_every_policy(policy, seed):
    _parity(_spec(policy, seed=seed))


# -- protocol variations -----------------------------------------------------


def test_replay_parity_with_interval_checkpoints():
    _parity(_spec(
        CachePolicy.FACE,
        scenario=dataclasses.replace(FAST, checkpoint_interval=20.0),
    ))


def test_replay_parity_clock_buffer_policy():
    # CLOCK takes the exact replay loop (reference bits are policy state
    # the LRU fast loop never maintains); parity must hold there too.
    _parity(_spec(CachePolicy.FACE, config_overrides={"buffer_policy": "clock"}))


@pytest.mark.parametrize("policy", list(CachePolicy), ids=lambda p: p.value)
def test_replay_parity_with_collect_obs(policy):
    # OBS on routes every event through the exact loop, whatever the pool.
    _parity(_spec(policy, collect_obs=True))


# -- crash cells: the trace truncates at the kill point ----------------------


def _crash_spec(policy: CachePolicy, **over) -> CellSpec:
    from repro.sim.scenario import CrashRecoveryScenario

    scenario = CrashRecoveryScenario(
        checkpoint_interval=0.5, max_transactions=8_000,
        warmup_min=40, warmup_max=600,
    )
    return _spec(policy, **{"scenario": scenario, **over})


@pytest.mark.parametrize(
    "policy", [CachePolicy.FACE_GSC, CachePolicy.LC, CachePolicy.NONE],
    ids=lambda p: p.value,
)
def test_replay_parity_crash_cell(policy):
    # The replayed run steps the trace up to the crash point (the recorded
    # trace extends on demand, so it is effectively truncated there), then
    # restarts against the recovered components: transactions-before-crash,
    # checkpoints and the whole RestartReport must match full execution bit
    # for bit — including redo_applied and flash_read_fraction, the Table 6
    # columns (ISSUE acceptance).
    _parity(_crash_spec(policy))


def test_replay_parity_crash_cell_with_collect_obs():
    # recovery.* counters/gauges are in PARITY_PREFIXES: the published
    # restart metrics must match too, not just the report dataclass.
    _parity(_crash_spec(CachePolicy.FACE_GSC, collect_obs=True))


@pytest.mark.parametrize("path", ["executed", "replayed"])
def test_collect_obs_cell_that_raises_restores_obs(path):
    # A crash schedule that exhausts max_transactions raises mid-cell; the
    # obs bracket must not leave the registry on for later cells.
    spec = _crash_spec(CachePolicy.FACE, collect_obs=True)
    spec = dataclasses.replace(
        spec, scenario=dataclasses.replace(spec.scenario, max_transactions=5)
    )
    assert not OBS.enabled
    with pytest.raises(ConfigError, match="never reached its kill point"):
        if path == "executed":
            run_cell(spec)
        else:
            replay_cell(spec, TraceRecorder(TINY, spec.seed))
    try:
        assert not OBS.enabled
    finally:
        OBS.disable()


def test_fast_mode_mixes_steady_and_crash_cells():
    # One grid, both scenario kinds, one shared (TINY, 42) trace: fast mode
    # must partition and replay them all bit-identically, in order.
    specs = [
        _spec(CachePolicy.FACE, fraction=0.06),
        _crash_spec(CachePolicy.FACE_GSC),
        _crash_spec(CachePolicy.NONE),
        _spec(CachePolicy.LC, fraction=0.08),
    ]
    slow = run_cells(specs, jobs=1)
    fast = run_cells(specs, jobs=1, fast=True)
    assert list(fast) == list(slow) == [s.key for s in specs]
    for key in slow:
        assert dataclasses.asdict(fast[key]) == dataclasses.asdict(slow[key])


# -- warm-state forks --------------------------------------------------------


def test_warm_fork_bit_identical_to_fresh_load():
    spec = _spec(CachePolicy.LC)
    fresh = dataclasses.asdict(run_cell(spec))
    forked = dataclasses.asdict(run_cell_warm(spec))
    assert forked == fresh
    # The memoized snapshot is never dirtied by the cell that forked it:
    # a second fork must reproduce the same result again.
    assert dataclasses.asdict(run_cell_warm(spec)) == fresh


# -- run_cells(..., fast=True) orchestration ---------------------------------


def _grid() -> list[CellSpec]:
    shared = [
        _spec(CachePolicy.FACE, fraction=f) for f in (0.06, 0.10)
    ] + [_spec(CachePolicy.LC, fraction=0.08)]
    opt_out = _spec(CachePolicy.FACE_GR, **{"replay_ok": False})
    return shared + [opt_out]


def test_fast_mode_bit_identical_with_ordered_callbacks():
    specs = _grid()
    slow_order, fast_order = [], []
    slow = run_cells(specs, progress=lambda p: slow_order.append(p.key))
    fast = run_cells(specs, progress=lambda p: fast_order.append(p.key), fast=True)
    assert list(fast) == list(slow) == [s.key for s in specs]
    assert slow_order == fast_order == [s.key for s in specs]
    for key in slow:
        assert dataclasses.asdict(fast[key]) == dataclasses.asdict(slow[key])


def test_fast_mode_counts_fallbacks():
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.enable()
    try:
        # One replayable pair + one opted-out cell + one lone (scale, seed)
        # group with no cached trace: two cells must fall back.
        specs = [
            _spec(CachePolicy.FACE, fraction=0.06),
            _spec(CachePolicy.FACE, fraction=0.10),
            _spec(CachePolicy.FACE_GR, **{"replay_ok": False}),
            _spec(CachePolicy.LC, seed=9),
        ]
        run_cells(specs, fast=True)
        assert OBS.counter("replay.fallbacks").value == 2
    finally:
        OBS.clear()
        if not was_enabled:
            OBS.disable()


# -- trace recording and the persistent cache --------------------------------


def test_trace_extends_incrementally_and_prefix_is_stable():
    recorder = TraceRecorder(TINY, 42)
    first = recorder.ensure(50)
    prefix_ops = list(first.ops)
    prefix_args = list(first.args)
    second = recorder.ensure(120)
    assert second.n_transactions >= 120
    assert list(second.ops[: len(prefix_ops)]) == prefix_ops
    assert list(second.args[: len(prefix_args)]) == prefix_args


def test_trace_cache_round_trip(cache_dir):
    assert not cached_trace_exists(TINY, 42)
    donor = TraceRecorder(TINY, 42)
    donor.ensure(200)
    assert donor.save_cache()
    assert cached_trace_exists(TINY, 42)

    fresh = TraceRecorder(TINY, 42)
    trace = fresh.ensure(200)
    assert trace.n_transactions >= 200
    # The cache served the request: the live recorder only recorded the
    # self-validation prefix, not the full 200 transactions.
    assert fresh.trace.n_transactions < 200


# -- trace-cache housekeeping (``python -m repro trace ls|rm|prune``) ---------


def _saved(scale: ScaleProfile, seed: int) -> None:
    recorder = TraceRecorder(scale, seed)
    recorder.ensure(30)
    assert recorder.save_cache()


def test_list_cached_traces_reads_headers(cache_dir):
    _saved(TINY, 23)
    _saved(LARGER, 24)
    entries = list_cached_traces()
    assert len(entries) == 2
    by_scale = {entry["scale_profile"]: entry for entry in entries}
    assert by_scale[TINY]["seed"] == 23
    assert by_scale[LARGER]["seed"] == 24
    for entry in entries:
        assert entry["n_transactions"] >= 30
        assert entry["file_bytes"] > 0
        assert entry["age_seconds"] >= 0.0


def test_remove_cached_traces_filters(cache_dir):
    _saved(TINY, 23)
    _saved(TINY, 24)
    _saved(LARGER, 23)
    assert len(remove_cached_traces(seed=24)) == 1
    assert len(remove_cached_traces(scale=LARGER)) == 1
    assert len(remove_cached_traces()) == 1  # unfiltered: everything left
    assert list_cached_traces() == []


def test_prune_by_size_drops_oldest_first(cache_dir):
    _saved(TINY, 23)
    _saved(TINY, 24)
    entries = list_cached_traces()
    oldest = entries[0]["path"]
    # Make ages unambiguous regardless of filesystem timestamp granularity.
    past = entries[-1]["mtime"] - 100
    os.utime(oldest, (past, past))
    keep_bytes = max(entry["file_bytes"] for entry in entries)
    report = prune_trace_cache(max_bytes=keep_bytes)
    assert report["removed"] == [Path(oldest).name]
    assert report["kept"] == 1


def test_prune_by_age(cache_dir):
    _saved(TINY, 23)
    (entry,) = list_cached_traces()
    old = entry["mtime"] - 10_000
    os.utime(entry["path"], (old, old))
    report = prune_trace_cache(max_age_seconds=5_000.0)
    assert report["removed"] == [entry["file"]]
    assert list_cached_traces() == []


@pytest.mark.parametrize("persisted_only", [False, True])
def test_fast_mode_ignores_another_scales_trace(cache_dir, persisted_only):
    # A trace serves exactly its own (scale, seed, workload): a same-seed
    # recording at a larger scale — live in this process, or only as a file
    # in the cache — must not change what ``fast=True`` returns at TINY.
    larger_pages = estimate_db_pages(LARGER)
    run_cells(
        [
            CellSpec(
                key=(fraction,),
                config=scaled_reference_config(
                    larger_pages, cache_fraction=fraction, policy=CachePolicy.FACE_GSC
                ),
                scale=LARGER,
                seed=42,
                scenario=FAST,
            )
            for fraction in (0.08, 0.16)
        ],
        fast=True,
    )
    assert cached_trace_exists(LARGER, 42)
    if persisted_only:
        clear_recorders()

    specs = [
        _spec(policy, fraction=fraction)
        for policy in (CachePolicy.FACE_GSC, CachePolicy.LC)
        for fraction in (0.08, 0.16)
    ]
    fast = run_cells(specs, fast=True)
    slow = run_cells(specs, fast=False)
    for key in slow:
        assert dataclasses.asdict(fast[key]) == dataclasses.asdict(slow[key])


# -- workload registry: parity and trace identity per workload ---------------


def _workload_cell(name: str, policy: CachePolicy, seed: int = 42, **knobs) -> CellSpec:
    """A CellSpec running a registry workload, sized via its page estimate."""
    spec_w = workload_spec(name, knobs or None)
    return CellSpec(
        key=(name, policy.value, seed),
        config=scaled_reference_config(
            estimate_workload_pages(spec_w, TINY), cache_fraction=0.08, policy=policy
        ),
        scale=TINY,
        seed=seed,
        workload=spec_w,
        scenario=FAST,
    )


@pytest.mark.parametrize("name", ["tpcc", "tpch-scan", "ycsb"])
def test_replay_parity_every_workload(name):
    # The tentpole claim generalised: boundary traces are workload-agnostic,
    # so each registry workload replays bit-identically to full execution.
    spec = _workload_cell(name, CachePolicy.FACE_GSC)
    full = dataclasses.asdict(run_cell(spec))
    recorder = TraceRecorder(TINY, spec.seed, workload=spec.workload_spec())
    replayed = dataclasses.asdict(replay_cell(spec, recorder))
    full.pop("obs"), replayed.pop("obs")
    assert replayed == full


@pytest.mark.parametrize("name", ["tpch-scan", "ycsb"])
def test_fast_mode_bit_identical_per_workload(name):
    # run_cells(fast=True) groups by (scale, seed, workload): a non-tpcc
    # grid records its own native trace and replays it for every sibling.
    specs = [
        _workload_cell(name, CachePolicy.FACE_GSC),
        _workload_cell(name, CachePolicy.LC),
    ]
    slow = run_cells(specs, jobs=1)
    fast = run_cells(specs, jobs=1, fast=True)
    assert list(fast) == list(slow) == [s.key for s in specs]
    for key in slow:
        assert dataclasses.asdict(fast[key]) == dataclasses.asdict(slow[key])


def test_trace_cache_workload_mismatch_fails_closed(cache_dir):
    # Satellite 6: a tpcc trace file renamed onto a ycsb cache key must be
    # rejected by the header's workload token, and the ycsb recorder falls
    # back to a fresh native recording — never replaying a donor from
    # another workload.
    from repro.sim.replay import _cache_key

    donor = TraceRecorder(TINY, 42)
    donor.ensure(150)
    assert donor.save_cache()

    ycsb = workload_spec("ycsb")
    (cache_dir / _cache_key(TINY, 42, "tpcc")).rename(
        cache_dir / _cache_key(TINY, 42, ycsb.token)
    )
    assert cached_trace_exists(TINY, 42, ycsb)

    fresh = TraceRecorder(TINY, 42, workload=ycsb)
    trace = fresh.ensure(150)
    # The mismatched trace was ignored: everything was recorded natively.
    assert trace.n_transactions >= 150
    assert fresh.trace.n_transactions >= 150


def test_trace_cache_rejects_corrupt_file(cache_dir):
    donor = TraceRecorder(TINY, 42)
    donor.ensure(150)
    assert donor.save_cache()
    path = next(cache_dir.iterdir())
    path.write_bytes(b'{"version": -1}\n' + b"garbage")

    fresh = TraceRecorder(TINY, 42)
    trace = fresh.ensure(150)
    # Corrupt cache is ignored, never trusted: recording starts over.
    assert trace.n_transactions >= 150
    assert fresh.trace.n_transactions >= 150
