"""Observability on the DRAM-miss path: free when off, unchanged when on.

Every layer a miss crosses creates its metric handles lazily, behind
``if OBS.enabled:``.  The first test runs a whole ``face+gsc`` cell with
observability off and checks that none of those caches was ever touched;
the second runs the same cell with it on and compares the registry, name
for name and value for value, with ``fixtures/obs_face_gsc_tiny.json`` —
the snapshot this cell produced before the miss path was flattened.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import CachePolicy, SystemConfig
from repro.obs import OBS
from repro.recovery.restart import crash_and_restart
from repro.sim.runner import ExperimentRunner
from repro.tpcc.scale import TINY

FIXTURE = Path(__file__).parent / "fixtures" / "obs_face_gsc_tiny.json"


@pytest.fixture(autouse=True)
def clean_global_registry():
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.disable()
    yield
    OBS.clear()
    OBS.enabled = was_enabled


def run_cell():
    """TPC-C TINY on an 8-frame buffer and a 32-page flash queue: the queue
    wraps ~100 times, GSC gives second chances and pulls from DRAM, twelve
    checkpoints flush through the cache, and a crash + restart ends it."""
    config = SystemConfig(
        buffer_pages=8, cache_policy=CachePolicy.FACE_GSC, cache_pages=32,
        segment_entries=8, scan_depth=8,
    )
    runner = ExperimentRunner(config, TINY, seed=7)
    runner.warm_up(50, 50)
    runner.measure(150, checkpoint_interval=0.05)
    crash_and_restart(runner.dbms)
    return runner.dbms


def test_disabled_run_leaves_every_lazy_handle_cache_untouched():
    dbms = run_cell()
    assert dbms.cache.directory.front > 10 * dbms.cache.capacity
    assert dbms._obs_lookup is None
    assert dbms.buffer._obs_handles is None
    assert dbms.cache._obs_cache is None
    for device in (dbms.disk.device, dbms.flash.device, dbms.log.device):
        assert device._obs_handles is None, device
    assert dbms.flash.device._obs_ssd_gauges is None
    assert dbms.disk.device._obs_qd1_reads is None
    for volume in (dbms.disk, dbms.flash):
        assert volume.store._obs_handles is None, volume
    snap = OBS.snapshot()
    assert snap.counters == {} and snap.gauges == {} and snap.histograms == {}


def test_enabled_run_reports_the_recorded_names_and_values():
    OBS.enable()
    run_cell()
    got = json.loads(OBS.snapshot().to_json())
    want = json.loads(FIXTURE.read_text())
    for section in ("counters", "gauges", "histograms"):
        assert sorted(got[section]) == sorted(want[section]), section
        for name, value in want[section].items():
            assert got[section][name] == value, name
