"""The observability layer: registry, scopes, instrumentation parity, and
sweep snapshot plumbing.

Contracts pinned here:

* get-or-create metric handles, kind-mismatch rejection, reset-keeps-handles;
* histogram bucketing, snapshot pickle round-trips and exports;
* the span timer's explicit clock;
* disabled-by-default is a true no-op (no metrics materialise);
* metrics derived from an instrumented run reproduce ``RunResult``'s
  Table 3 figures exactly;
* ``collect_obs`` cells return identical snapshots serially and in worker
  processes (the parallel-sweep determinism contract extended to obs).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.obs import (
    OBS,
    Counter,
    Histogram,
    MetricRegistry,
    Scope,
    sanitize,
)
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import SteadyStateScenario
from repro.storage.device import IOKind
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY

DB_PAGES = estimate_db_pages(TINY)


@pytest.fixture(autouse=True)
def clean_global_registry():
    """Each test sees the singleton as a fresh process would."""
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.disable()
    yield
    OBS.clear()
    OBS.enabled = was_enabled


# -- registry basics ----------------------------------------------------------


def test_sanitize():
    assert sanitize("FaCE+GSC") == "face_gsc"
    assert sanitize("  HDD only ") == "hdd_only"
    assert sanitize("a.b.c") == "a.b.c"


def test_get_or_create_returns_same_handle():
    reg = MetricRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_kind_mismatch_rejected():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ConfigError, match="already registered"):
        reg.gauge("x")
    with pytest.raises(ConfigError, match="already registered"):
        reg.histogram("x")


def test_reset_zeroes_but_keeps_handles():
    reg = MetricRegistry()
    counter = reg.counter("c")
    counter.inc(5)
    hist = reg.histogram("h", bounds=(1.0, 2.0))
    hist.observe(1.5)
    reg.reset()
    assert counter.value == 0.0
    assert hist.count == 0
    assert reg.counter("c") is counter  # handle survives
    counter.inc()
    assert reg.snapshot().counters["c"] == 1.0


def test_histogram_bucketing_and_overflow():
    hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
        hist.observe(value)
    # le-semantics: 0.5 and 1.0 -> bucket 0; 5.0 -> 1; 100.0 -> 2; 1000 -> overflow
    assert hist.counts == [2, 1, 1, 1]
    assert hist.count == 5
    assert hist.total == pytest.approx(1106.5)


def test_histogram_requires_bounds():
    with pytest.raises(ConfigError, match="bucket"):
        Histogram("h", bounds=())


def test_counter_and_gauge_semantics():
    counter, gauge = Counter("c"), MetricRegistry().gauge("g")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    gauge.set(7.0)
    gauge.set(2.0)
    assert gauge.value == 2.0


# -- snapshots: pickle / export ------------------------------------------------


def _registry_with_data() -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("a").inc(10)
    reg.gauge("g").set(3.0)
    reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
    return reg


def test_snapshot_pickle_round_trip():
    snap = _registry_with_data().snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert clone == snap
    assert clone.as_flat() == snap.as_flat()


def test_snapshot_flat_json_csv(tmp_path):
    snap = _registry_with_data().snapshot()
    flat = snap.as_flat()
    assert flat["a"] == 10.0
    assert flat["h.count"] == 1.0
    assert snap.get("a") == 10.0
    assert snap.get("missing", -1.0) == -1.0
    assert '"counters"' in snap.to_json()
    out = tmp_path / "m.csv"
    rows = snap.to_csv(str(out))
    assert rows == len(flat)
    assert out.read_text().startswith("metric,value\n")


def test_histogram_quantile():
    hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    snap_reg = MetricRegistry()
    snap_reg._metrics["h"] = hist
    hsnap = snap_reg.snapshot().histograms["h"]
    assert hsnap.quantile(0.25) == 1.0
    assert hsnap.quantile(0.5) == 10.0
    assert hsnap.quantile(1.0) == float("inf")  # overflow bucket
    with pytest.raises(ConfigError):
        hsnap.quantile(1.5)


# -- spans --------------------------------------------------------------------


def test_scope_records_elapsed_on_fake_clock():
    reg = MetricRegistry()
    reg.enable()
    clock_value = [10.0]
    with Scope(reg, "phase", clock=lambda: clock_value[0]):
        clock_value[0] = 12.5
    hist = reg.snapshot().histograms["phase.seconds"]
    assert hist.count == 1
    assert hist.total == pytest.approx(2.5)


def test_scope_noop_while_disabled():
    reg = MetricRegistry()
    calls = []

    def clock() -> float:
        calls.append(1)
        return 0.0

    with Scope(reg, "phase", clock=clock):
        pass
    assert not calls  # the clock is never consulted
    assert reg.snapshot().histograms == {}


# -- disabled-by-default is a true no-op ----------------------------------------


def test_disabled_run_materialises_no_hot_path_metrics():
    config = scaled_reference_config(DB_PAGES, policy=CachePolicy.FACE)
    runner = ExperimentRunner(config, TINY, seed=5)
    runner.warm_up(100, 2000)
    runner.measure(200)
    snap = OBS.snapshot()
    assert snap.counters == {} and snap.gauges == {} and snap.histograms == {}


# -- end-to-end parity with RunResult ------------------------------------------


@pytest.mark.parametrize("policy", [CachePolicy.FACE_GSC, CachePolicy.LC])
def test_obs_counters_reproduce_runresult_figures(policy):
    OBS.enable()
    config = scaled_reference_config(DB_PAGES, policy=policy)
    runner = ExperimentRunner(config, TINY, seed=7)
    runner.warm_up(200, 5000)  # resets OBS at the measurement boundary
    result = runner.measure(400)
    snap = OBS.snapshot()
    prefix = runner.dbms.cache.obs_prefix
    lookups = snap.get(f"{prefix}.lookups")
    hits = snap.get(f"{prefix}.hits")
    assert lookups == result.cache_stats["lookups"]
    assert hits == result.cache_stats["hits"]
    obs_hit_rate = hits / lookups if lookups else 0.0
    assert obs_hit_rate == pytest.approx(result.flash_hit_rate)
    dirty = snap.get(f"{prefix}.evictions.dirty")
    disk_writes = snap.get(f"{prefix}.disk_writes")
    obs_wr = max(0.0, 1.0 - disk_writes / dirty) if dirty else 0.0
    assert obs_wr == pytest.approx(result.write_reduction)


def test_device_histograms_match_device_stats():
    OBS.enable()
    config = scaled_reference_config(DB_PAGES, policy=CachePolicy.FACE)
    runner = ExperimentRunner(config, TINY, seed=7)
    runner.warm_up(200, 5000)
    runner.measure(300)
    snap = OBS.snapshot()
    flash = runner.dbms.flash.device
    name = sanitize(flash.profile.name)
    device_ops = 0
    for kind in IOKind:
        ops = getattr(flash.stats, f"{kind.value}_ops")
        assert snap.get(f"storage.ssd.{name}.ops.{kind.value}") == ops
        device_ops += ops
    hist_ops = sum(
        h.count
        for metric, h in snap.histograms.items()
        if metric.startswith(f"storage.ssd.{name}.")
    )
    assert hist_ops == device_ops


# -- sweep plumbing ------------------------------------------------------------


def _specs(collect_obs: bool) -> list[CellSpec]:
    fast = SteadyStateScenario(measure_transactions=120, warmup_min=40, warmup_max=400)
    return [
        CellSpec(
            key=("face", fraction),
            config=scaled_reference_config(
                DB_PAGES, cache_fraction=fraction, policy=CachePolicy.FACE
            ),
            scale=TINY,
            seed=42,
            collect_obs=collect_obs,
            scenario=fast,
        )
        for fraction in (0.06, 0.10)
    ]


def test_collect_obs_serial_equals_parallel():
    serial = run_cells(_specs(True), jobs=1)
    parallel = run_cells(_specs(True), jobs=2)
    assert serial == parallel  # RunResult equality includes the snapshots
    for result in serial.values():
        assert result.obs is not None
        assert result.obs.counters  # instrumentation actually fired
        clone = pickle.loads(pickle.dumps(result.obs))
        assert clone == result.obs


def test_collect_obs_restores_disabled_state():
    assert not OBS.enabled
    run_cells(_specs(True), jobs=1)
    assert not OBS.enabled


def test_without_collect_obs_results_carry_no_snapshot():
    for result in run_cells(_specs(False), jobs=1).values():
        assert result.obs is None


def test_sweep_threads_collect_obs_and_merges_in_grid_order():
    base = ExperimentConfig(
        scale=TINY, policy="face", measure_transactions=120,
        warmup_min=40, warmup_max=400, collect_obs=True,
    )
    cells = run_cells([
        CellSpec.from_config((fraction,), base.with_(cache_fraction=fraction))
        for fraction in (0.06, 0.10)
    ])
    assert list(cells) == [(0.06,), (0.10,)]  # grid order
    for result in cells.values():
        # Each cell's snapshot is its own run's counters, not a running sum.
        assert result.obs.counters["flashcache.face.lookups"] == (
            result.cache_stats["lookups"]
        )

    plain = run_cells([CellSpec.from_config((0.06,), base.with_(collect_obs=False))])
    assert [result.obs for result in plain.values()] == [None]
