"""Scenario layer (repro.sim.scenario): the one protocol both engines drive.

Pins the refactor's equivalence claims:

* ``SteadyStateScenario.execute`` is bit-identical, for every cache
  policy, to warming up and measuring an ``ExperimentRunner`` by hand (the
  steady-state run the test names call ``run_steady_state``);
* ``CrashRecoveryScenario.execute`` on a fresh runner is what a crash
  :class:`~repro.sim.parallel.CellSpec` produces through ``run_cell``;
* scenarios validate their knobs, and both scenarios and crash specs
  pickle (the parallel engine fans crash cells out to worker processes).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cell, run_cells
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import (
    CrashRecoveryScenario,
    CrashRun,
    SteadyStateScenario,
    run_until_crash_point,
)
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import TINY

DB_PAGES = estimate_db_pages(TINY)

#: Short but non-trivial: fills the small flash cache and forces WAL syncs.
MEASURE, WARM_MIN, WARM_MAX = 120, 40, 600

#: A crash schedule that fires quickly at TINY scale (checkpoints every
#: 0.2 simulated seconds; the kill lands mid-interval well before the
#: transaction bound).
FAST_CRASH = dict(checkpoint_interval=0.2, max_transactions=8_000,
                  warmup_min=WARM_MIN, warmup_max=WARM_MAX)


def _config(policy: CachePolicy):
    return scaled_reference_config(DB_PAGES, cache_fraction=0.08, policy=policy)


# -- steady state: the scenario IS a runner's warm-up and measure -------------


@pytest.mark.parametrize("policy", list(CachePolicy), ids=lambda p: p.value)
def test_steady_scenario_matches_run_steady_state(policy):
    config = _config(policy)
    runner = ExperimentRunner(config, TINY, seed=42)
    runner.warm_up(WARM_MIN, WARM_MAX)
    legacy = runner.measure(MEASURE)
    scenario = SteadyStateScenario(
        measure_transactions=MEASURE, warmup_min=WARM_MIN, warmup_max=WARM_MAX
    )
    via_scenario = scenario.execute(ExperimentRunner(config, TINY, seed=42))
    assert dataclasses.asdict(via_scenario) == dataclasses.asdict(legacy)


def test_steady_scenario_with_checkpoints_matches():
    config = _config(CachePolicy.FACE)
    runner = ExperimentRunner(config, TINY, seed=7)
    runner.warm_up(WARM_MIN, WARM_MAX)
    legacy = runner.measure(MEASURE, checkpoint_interval=0.5)
    scenario = SteadyStateScenario(
        measure_transactions=MEASURE, warmup_min=WARM_MIN,
        warmup_max=WARM_MAX, checkpoint_interval=0.5,
    )
    via_scenario = scenario.execute(ExperimentRunner(config, TINY, seed=7))
    assert dataclasses.asdict(via_scenario) == dataclasses.asdict(legacy)


# -- crash recovery: the cell path IS the direct path -------------------------


@pytest.mark.parametrize(
    "policy", [CachePolicy.FACE_GSC, CachePolicy.LC, CachePolicy.NONE],
    ids=lambda p: p.value,
)
def test_crash_cell_matches_direct_execution(policy):
    scenario = CrashRecoveryScenario(**FAST_CRASH)
    config = _config(policy)
    direct = scenario.execute(ExperimentRunner(config, TINY, seed=42))
    spec = CellSpec(key=(policy.value,), config=config, scale=TINY, seed=42,
                    scenario=scenario)
    via_cell = run_cell(spec)
    assert isinstance(via_cell, CrashRun)
    assert dataclasses.asdict(via_cell) == dataclasses.asdict(direct)
    assert via_cell.restart_seconds == direct.report.total_time
    assert via_cell.checkpoints_before_crash >= scenario.min_checkpoints


def test_crash_cells_fan_out_across_processes():
    # Two crash cells through the process pool: the specs (scenario
    # included) and the CrashRun results must survive pickling, and the
    # fan-out must be bit-identical to in-process execution.
    scenario = CrashRecoveryScenario(**FAST_CRASH)
    specs = [
        CellSpec(key=(policy.value,), config=_config(policy), scale=TINY,
                 seed=42, scenario=scenario)
        for policy in (CachePolicy.FACE_GSC, CachePolicy.NONE)
    ]
    parallel = run_cells(specs, jobs=2)
    serial = run_cells(specs, jobs=1)
    assert {
        key: dataclasses.asdict(result) for key, result in parallel.items()
    } == {key: dataclasses.asdict(result) for key, result in serial.items()}


# -- CellSpec / ExperimentConfig wiring ---------------------------------------


def test_resolve_scenario_defaults_to_the_specs_own_protocol():
    spec = CellSpec(
        key=("x",), config=_config(CachePolicy.FACE), scale=TINY, seed=1
    )
    # The default protocol is the steady one ExperimentConfig describes.
    assert spec.resolve_scenario() == SteadyStateScenario()
    assert SteadyStateScenario() == ExperimentConfig(scale=TINY).build_scenario()
    custom = SteadyStateScenario(
        measure_transactions=77, warmup_min=11, warmup_max=22,
        checkpoint_interval=3.0,
    )
    assert dataclasses.replace(spec, scenario=custom).resolve_scenario() is custom


def test_from_config_always_carries_the_experiments_scenario():
    experiment = ExperimentConfig(
        scale=TINY, measure_transactions=77, warmup_min=11, warmup_max=22,
        checkpoint_interval=3.0,
    )
    spec = CellSpec.from_config(("cell",), experiment)
    assert spec.scenario == experiment.build_scenario()
    assert spec.workload == experiment.workload_spec()


def test_experiment_config_builds_a_crash_scenario():
    experiment = ExperimentConfig(
        scale=TINY, scenario="crash", checkpoint_interval=0.4,
        crash_point=0.25, crash_max_transactions=9_000,
    )
    spec = CellSpec.from_config(("cell",), experiment)
    scenario = spec.resolve_scenario()
    assert isinstance(scenario, CrashRecoveryScenario)
    assert scenario.checkpoint_interval == 0.4
    assert scenario.crash_point == 0.25
    assert scenario.max_transactions == 9_000


def test_crash_experiment_requires_an_interval():
    with pytest.raises(ConfigError, match="checkpoint_interval"):
        ExperimentConfig(scale=TINY, scenario="crash")


# -- the crash schedule itself ------------------------------------------------


def _crash_runner() -> ExperimentRunner:
    return ExperimentRunner(_config(CachePolicy.FACE_GSC), TINY, seed=4)


def test_runs_until_crash_point_after_min_checkpoints():
    runner = _crash_runner()
    executed, checkpoints = run_until_crash_point(
        runner, checkpoint_interval=0.02, min_checkpoints=2,
        max_transactions=5_000,
    )
    assert checkpoints >= 2
    assert 0 < executed <= 5_000
    assert runner.dbms.wall_clock() > 0.02  # at least one full interval


def test_exhausting_max_transactions_raises():
    # A run that never reaches its scheduled kill point must not silently
    # return as if it crashed on schedule.
    with pytest.raises(ConfigError, match="never reached its kill point"):
        run_until_crash_point(
            _crash_runner(), checkpoint_interval=1e9, max_transactions=25
        )


def test_run_until_crash_point_rejects_invalid_interval():
    with pytest.raises(ConfigError):
        run_until_crash_point(_crash_runner(), checkpoint_interval=0.0)


# -- validation and pickling --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(checkpoint_interval=0.0),
        dict(crash_point=0.0),
        dict(crash_point=1.0),
        dict(min_checkpoints=0),
        dict(max_transactions=0),
    ],
)
def test_crash_scenario_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        CrashRecoveryScenario(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(measure_transactions=0), dict(checkpoint_interval=-1.0)],
)
def test_steady_scenario_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        SteadyStateScenario(**kwargs)


def test_scenarios_pickle_and_hash():
    for scenario in (
        SteadyStateScenario(measure_transactions=10),
        CrashRecoveryScenario(checkpoint_interval=0.3, crash_point=0.75),
    ):
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert hash(clone) == hash(scenario)
