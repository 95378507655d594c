"""Shared infrastructure for the paper-reproduction benchmarks.

Every module in this directory regenerates one table or figure from the
paper's evaluation (Section 5).  All experiments share:

* the BENCH TPC-C scale (the paper's 50 GB / 500-warehouse database scaled
  ~1000x with ratios preserved — see ``repro.tpcc.scale``),
* the paper's size ratios (DRAM buffer 0.4 % of the database; flash cache
  swept as a fraction of the database),
* a steady-state protocol: warm up until the flash cache is fully
  populated, reset counters, then measure.

Sweep cells are memoised per session so Table 3, Table 4 and Figure 4 —
which share policy/size grids — pay for each configuration once.  Cells are
independent steady-state measurements, so harnesses run them through the
parallel engine (:mod:`repro.sim.parallel`): set ``REPRO_BENCH_JOBS=N`` to
fan each harness's grid out over N worker processes — results are
bit-identical to a serial run.

Set ``REPRO_BENCH_MODE=full`` for longer runs (tighter estimates, same
shapes).  Cells are served from the trace-replay fast path by default
(bit-identical results, several-fold faster grids); ``REPRO_BENCH_FAST=0``
forces full execution.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

import pytest

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.runner import ExperimentRunner, RunResult
from repro.sim.scenario import SteadyStateScenario
from repro.storage.profiles import MLC_SAMSUNG_470, SLC_INTEL_X25E
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH

FULL_MODE = os.environ.get("REPRO_BENCH_MODE", "quick") == "full"

#: Worker processes per harness grid (1 = serial, 0 = one per CPU).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")

#: Serve sweep cells from the trace-replay fast path
#: (:mod:`repro.sim.replay`) by default — results are bit-identical to full
#: execution and table-style grids finish several times faster.  Set
#: ``REPRO_BENCH_FAST=0`` to force full execution everywhere (e.g. when
#: benchmarking the execution engine itself).
BENCH_FAST = os.environ.get("REPRO_BENCH_FAST", "1").strip().lower() not in (
    "0", "off", "no",
)

#: Measured transactions per configuration.
MEASURE_TX = 6000 if FULL_MODE else 2500
#: Warm-up bounds (warm-up actually stops when the cache is populated).
WARMUP_MIN = 500
WARMUP_MAX = 30_000 if FULL_MODE else 15_000

#: The paper's Table 3/4 flash-cache sizes (2..10 GB of a 50 GB database).
TABLE_FRACTIONS = (0.04, 0.08, 0.12, 0.16, 0.20)
#: Figure 4 extends the sweep to 28 %.
FIG4_FRACTIONS = (0.04, 0.12, 0.20, 0.28)

POLICY_BY_NAME = {
    "LC": CachePolicy.LC,
    "FaCE": CachePolicy.FACE,
    "FaCE+GR": CachePolicy.FACE_GR,
    "FaCE+GSC": CachePolicy.FACE_GSC,
}

DB_PAGES = estimate_db_pages(BENCH)

FLASH_PROFILES = {"mlc": MLC_SAMSUNG_470, "slc": SLC_INTEL_X25E}


def config_for(
    policy_name: str, cache_fraction: float, flash: str = "mlc", **overrides
) -> SystemConfig:
    """The standard system-under-test for one sweep cell."""
    if policy_name == "HDD-only":
        return scaled_reference_config(
            DB_PAGES, cache_fraction=0.01, policy=CachePolicy.NONE, **overrides
        )
    if policy_name == "SSD-only":
        return scaled_reference_config(
            DB_PAGES,
            cache_fraction=0.01,
            policy=CachePolicy.NONE,
            ssd_only=True,
            flash_profile=FLASH_PROFILES[flash],
            label="SSD-only",
            **overrides,
        )
    return scaled_reference_config(
        DB_PAGES,
        cache_fraction=cache_fraction,
        policy=POLICY_BY_NAME[policy_name],
        flash_profile=FLASH_PROFILES[flash],
        **overrides,
    )


#: Session-wide memo of completed cells, keyed by (policy, fraction, flash).
#: ``sweep_cell`` fills it on demand; ``prefetch_cells`` fills many keys at
#: once through the parallel engine.
_CELL_RESULTS: dict[tuple[str, float, str], RunResult] = {}


def _cell_spec(key: tuple[str, float, str]) -> CellSpec:
    policy_name, cache_fraction, flash = key
    return CellSpec(
        key=key,
        config=config_for(policy_name, cache_fraction, flash),
        scale=BENCH,
        seed=42,  # fixed seed — matches the historical memoised cells
        scenario=SteadyStateScenario(
            measure_transactions=MEASURE_TX,
            warmup_min=WARMUP_MIN,
            warmup_max=WARMUP_MAX,
        ),
    )


def prefetch_cells(keys: Iterable[tuple[str, float, str]], jobs: int | None = None) -> None:
    """Populate the cell memo for ``keys``, fanning out over ``jobs`` workers.

    Harnesses call this up front with their whole grid so that, when
    ``REPRO_BENCH_JOBS`` > 1, independent cells run concurrently; the
    subsequent ``sweep_cell`` lookups are then cache hits.  Results are
    bit-identical to serial execution.
    """
    missing = [k for k in dict.fromkeys(keys) if k not in _CELL_RESULTS]
    if not missing:
        return
    jobs = BENCH_JOBS if jobs is None else jobs
    _CELL_RESULTS.update(
        run_cells([_cell_spec(k) for k in missing], jobs=jobs, fast=BENCH_FAST)
    )


def sweep_cell(policy_name: str, cache_fraction: float, flash: str = "mlc") -> RunResult:
    """Run (once per session) one steady-state measurement cell."""
    key = (policy_name, cache_fraction, flash)
    if key not in _CELL_RESULTS:
        prefetch_cells([key])
    return _CELL_RESULTS[key]


def steady_cells(
    configs: Mapping[str, SystemConfig],
    *,
    seed: int = 42,
    measure_transactions: int | None = None,
    jobs: int | None = None,
) -> dict[str, RunResult]:
    """Measure a set of labelled one-off configurations, possibly in parallel.

    For harnesses whose cells are custom :class:`SystemConfig` builds rather
    than ``config_for`` grid points (Table 2 policies, Table 5 DRAM-vs-flash,
    Figure 5 scale-up, the ablations).  Not memoised — each harness owns its
    own configs.  Returns ``{label: RunResult}`` in input order.
    """
    specs = [
        CellSpec(
            key=(label,),
            config=config,
            scale=BENCH,
            seed=seed,
            scenario=SteadyStateScenario(
                measure_transactions=(
                    MEASURE_TX
                    if measure_transactions is None
                    else measure_transactions
                ),
                warmup_min=WARMUP_MIN,
                warmup_max=WARMUP_MAX,
            ),
        )
        for label, config in configs.items()
    ]
    jobs = BENCH_JOBS if jobs is None else jobs
    cells = run_cells(specs, jobs=jobs, fast=BENCH_FAST)
    return {key[0]: result for key, result in cells.items()}


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def db_pages() -> int:
    return DB_PAGES
