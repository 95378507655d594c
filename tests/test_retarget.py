"""Cross-scale trace retargeting: identity parity pin + machinery tests.

The identity tier is pinned the way ``tests/test_replay_parity.py`` pins replay:
retargeting a trace onto its own scale must be bit-identical to the direct
path, both at the byte level and through a full replayed measurement.  The
donor tier uses a purpose-built ``DONOR`` profile slightly larger than
``TINY`` in every segment, so donor recording stays test-cheap while still
exercising real compression.  The statistical gates themselves
(:func:`repro.sim.retarget.verify_retarget`) run at reference size in CI's
``retarget-smoke`` job via ``python -m repro retarget --verify``; here the
profile machinery is unit-tested on its own invariants.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.obs import OBS
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.replay import (
    TraceRecorder,
    cached_trace_exists,
    clear_recorders,
    get_recorder,
    list_cached_traces,
    prepare_replay,
    prune_trace_cache,
    remove_cached_traces,
    replay_cell,
)
from repro.sim.retarget import (
    RetargetedTraceRecorder,
    access_profile,
    build_remap_table,
    find_donor_scale,
    resolve_recorder,
    retarget_compatible,
    retarget_incompatibility,
    retargeted_recorder,
)
from repro.sim.trace import SharedTraceHandle
from repro.sim.warmstate import clear_snapshots
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY, ScaleProfile, page_geometry

#: A donor ~2x TINY in the variable segments: cheap to record, and every
#: TINY segment fits inside it, so compression is real but test-fast.
DONOR = ScaleProfile(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=60,
    items=400,
    orders_per_district=60,
)

SEED = 23
FAST = dict(measure_transactions=120, warmup_min=40, warmup_max=600)


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    clear_recorders()
    clear_snapshots()
    yield
    clear_recorders()
    clear_snapshots()


def _spec(scale=TINY, seed=SEED, donor=None, policy=CachePolicy.FACE_GSC) -> CellSpec:
    return CellSpec(
        key=(policy.value, repr(donor)),
        config=scaled_reference_config(
            estimate_db_pages(scale), cache_fraction=0.08, policy=policy
        ),
        scale=scale,
        seed=seed,
        trace_donor=donor,
        **FAST,
    )


# -- remap table ---------------------------------------------------------------


def test_identity_table_is_identity():
    table = build_remap_table(TINY, TINY)
    assert list(table) == list(range(page_geometry(TINY)[-1].end_page))


def test_remap_table_preserves_segments_and_order():
    table = build_remap_table(DONOR, TINY)
    assert len(table) == page_geometry(DONOR)[-1].end_page
    for donor_seg, target_seg in zip(page_geometry(DONOR), page_geometry(TINY)):
        mapped = [table[p] for p in range(donor_seg.first_page, donor_seg.end_page)]
        # Every donor page lands inside the *same-name* target segment...
        assert min(mapped) == target_seg.first_page
        assert max(mapped) == target_seg.end_page - 1
        # ...and relative order within the segment is preserved.
        assert mapped == sorted(mapped)


def test_expansion_is_rejected():
    assert retarget_compatible(DONOR, TINY)
    why = retarget_incompatibility(TINY, DONOR)
    assert why is not None and "only compresses" in why
    with pytest.raises(ConfigError):
        build_remap_table(TINY, DONOR)


# -- identity parity (tier 1, pinned) -----------------------------------------


def test_identity_retarget_is_bit_identical():
    native = get_recorder(TINY, SEED)
    native.ensure(300)
    identity = RetargetedTraceRecorder(TINY, SEED, TINY)
    identity.ensure(300)
    native_trace = native.longest_trace()
    assert identity.trace.ops == native_trace.ops[: len(identity.trace.ops)]
    assert identity.trace.args == native_trace.args[: len(identity.trace.args)]
    assert identity.trace.n_transactions >= 300


def test_identity_retarget_replay_parity():
    spec = _spec()
    direct = replay_cell(spec, get_recorder(TINY, SEED))
    retargeted = replay_cell(spec, RetargetedTraceRecorder(TINY, SEED, TINY))
    assert dataclasses.replace(direct, obs=None) == dataclasses.replace(
        retargeted, obs=None
    )


# -- donor retargeting ---------------------------------------------------------


def test_retargeted_pages_stay_in_target_universe():
    recorder = retargeted_recorder(TINY, SEED, DONOR)
    trace = recorder.ensure(200)
    profile = access_profile(trace, TINY, 200)
    assert profile["accesses"] > 0
    shares = [seg["share"] for seg in profile["segments"].values()]
    assert abs(sum(shares) - 1.0) < 1e-9  # no access fell outside a segment


def test_retargeted_replay_is_deterministic():
    spec = _spec(donor=DONOR)
    first = replay_cell(spec, retargeted_recorder(TINY, SEED, DONOR))
    clear_recorders()
    clear_snapshots()
    second = replay_cell(spec, retargeted_recorder(TINY, SEED, DONOR))
    assert dataclasses.replace(first, obs=None) == dataclasses.replace(
        second, obs=None
    )


def test_access_profile_decile_mass():
    recorder = get_recorder(TINY, SEED)
    profile = access_profile(recorder.ensure(200), TINY, 200)
    for segment in profile["segments"].values():
        if segment["share"]:
            assert abs(sum(segment["deciles"]) - 1.0) < 1e-9


# -- resolution precedence -----------------------------------------------------


def test_resolve_prefers_exact_native_source():
    recorder = TraceRecorder(TINY, SEED)
    recorder.ensure(50)
    assert recorder.save_cache()
    clear_recorders()
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, TraceRecorder)


def test_resolve_discovers_cached_donor():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    assert not cached_trace_exists(TINY, SEED)
    assert find_donor_scale(TINY, SEED) == DONOR
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, RetargetedTraceRecorder)
    assert resolved.donor_scale == DONOR


def test_escape_hatch_disables_auto_donor(monkeypatch):
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    monkeypatch.setenv("REPRO_REPLAY_RETARGET", "0")
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, TraceRecorder)
    # Explicit donors are still honoured with the hatch thrown.
    explicit = resolve_recorder(TINY, SEED, DONOR)
    assert isinstance(explicit, RetargetedTraceRecorder)


def test_explicit_incompatible_donor_raises():
    with pytest.raises(ConfigError):
        resolve_recorder(DONOR, SEED, TINY)


# -- sweep engine & prepare ----------------------------------------------------


def test_fast_sweep_runs_from_donor_only():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    specs = [
        _spec(donor=DONOR, policy=CachePolicy.LC),
        _spec(donor=DONOR, policy=CachePolicy.FACE_GSC),
    ]
    OBS.clear()
    OBS.enable()
    try:
        results = run_cells(specs, jobs=1, fast=True)
        assert OBS.counter("replay.retarget.cells").value == 2
        assert OBS.counter("replay.trace.recorded_transactions").value == 0
    finally:
        OBS.clear()
        OBS.disable()
    assert len(results) == 2
    assert not cached_trace_exists(TINY, SEED)  # derived state never persisted


def test_prepare_replay_reports_remap_cost():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    prep = prepare_replay([_spec(donor=DONOR)])
    (group,) = prep["groups"]
    assert group["retargeted"] is True
    assert group["donor"] == repr(DONOR)
    assert group["remap_seconds"] >= 0.0
    assert prep["retarget_seconds"] == pytest.approx(group["remap_seconds"])
    # A seed with no donor recording resolves natively (no auto-discovery).
    native = prepare_replay([_spec(seed=SEED + 5)])
    assert native["groups"][0]["retargeted"] is False
    assert native["retarget_seconds"] == 0.0


def test_fork_token_separates_warm_state():
    native = TraceRecorder(TINY, SEED)
    retargeted = RetargetedTraceRecorder(TINY, SEED, DONOR)
    assert native.fork_token == "native"
    assert retargeted.fork_token != native.fork_token
    handle = SharedTraceHandle("seg", 1, 1, 1, token=retargeted.fork_token)
    assert pickle.loads(pickle.dumps(handle)).token == retargeted.fork_token


# -- experiment / ablation integration ----------------------------------------


def test_experiment_validates_trace_donor():
    from repro.sim.experiment import ExperimentConfig

    config = ExperimentConfig(scale=TINY, seed=SEED, trace_donor=DONOR)
    assert "trace_donor" in config.describe()
    with pytest.raises(ConfigError):
        ExperimentConfig(scale=DONOR, seed=SEED, trace_donor=TINY)


def test_verify_parity_rejects_donor_studies():
    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig

    base = ExperimentConfig(
        scale=TINY, seed=SEED, trace_donor=DONOR, measure_transactions=120
    )
    study = AblationStudy(base, {"admission": None})
    with pytest.raises(ConfigError, match="retarget --verify"):
        verify_parity(study, results=None)


# -- trace-cache housekeeping --------------------------------------------------


def _saved(scale: ScaleProfile, seed: int) -> None:
    recorder = TraceRecorder(scale, seed)
    recorder.ensure(30)
    assert recorder.save_cache()


def test_list_cached_traces_reads_headers():
    _saved(TINY, SEED)
    _saved(DONOR, SEED + 1)
    entries = list_cached_traces()
    assert len(entries) == 2
    by_scale = {repr(entry["scale_profile"]): entry for entry in entries}
    assert by_scale[repr(TINY)]["seed"] == SEED
    assert by_scale[repr(DONOR)]["seed"] == SEED + 1
    for entry in entries:
        assert entry["n_transactions"] >= 30
        assert entry["file_bytes"] > 0
        assert entry["age_seconds"] >= 0.0


def test_remove_cached_traces_filters():
    _saved(TINY, SEED)
    _saved(TINY, SEED + 1)
    _saved(DONOR, SEED)
    assert len(remove_cached_traces(seed=SEED + 1)) == 1
    assert len(remove_cached_traces(scale=DONOR)) == 1
    assert len(remove_cached_traces()) == 1  # unfiltered: everything left
    assert list_cached_traces() == []


def test_prune_by_size_drops_oldest_first(tmp_path):
    import os

    _saved(TINY, SEED)
    _saved(TINY, SEED + 1)
    entries = list_cached_traces()
    oldest = entries[0]["path"]
    # Make ages unambiguous regardless of filesystem timestamp granularity.
    past = entries[-1]["mtime"] - 100
    os.utime(oldest, (past, past))
    keep_bytes = max(entry["file_bytes"] for entry in entries)
    report = prune_trace_cache(max_bytes=keep_bytes)
    assert report["removed"] == [Path(oldest).name]
    assert report["kept"] == 1


def test_prune_by_age(tmp_path):
    import os

    _saved(TINY, SEED)
    path = list_cached_traces()[0]["path"]
    old = list_cached_traces()[0]["mtime"] - 10_000
    os.utime(path, (old, old))
    report = prune_trace_cache(max_age_seconds=5_000.0)
    assert report["removed"] == [Path(path).name]
    assert list_cached_traces() == []
