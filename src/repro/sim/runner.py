"""Experiment runner: build a system, warm it up, measure steady state.

Mirrors the paper's measurement discipline (Section 5.2): results are taken
after the flash cache is fully populated; device and cache counters are
reset at the warm-up/measurement boundary; checkpoints fire on a simulated-
time interval during measured runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any, Callable

from repro.core.config import SystemConfig
from repro.core.dbms import SimulatedDBMS
from repro.obs import OBS, RegistrySnapshot
from repro.sim.metrics import ThroughputSeries
from repro.tpcc.scale import ScaleProfile
from repro.workload.registry import (
    TPCC_SPEC,
    WorkloadSpec,
    WorkloadStats,
    get_workload_entry,
    load_workload,
)


@dataclass
class RunResult:
    """Steady-state measurements of one configuration (one table cell)."""

    name: str
    transactions: int
    wall_seconds: float
    tpmc: float
    dram_hit_rate: float
    flash_hit_rate: float
    write_reduction: float
    utilization: dict[str, float] = field(default_factory=dict)
    flash_page_iops: float = 0.0
    disk_page_iops: float = 0.0
    duplicate_fraction: float = 0.0
    resource_times: dict[str, float] = field(default_factory=dict)
    cache_stats: dict[str, float] = field(default_factory=dict)
    #: Transactions spent populating the cache before the measured region
    #: (carried on the result so parallel workers can report it).
    warmup_transactions: int = 0
    #: Observability snapshot of the measured region (only populated when
    #: the cell ran with ``collect_obs`` — see :mod:`repro.sim.parallel`).
    obs: RegistrySnapshot | None = None

    @property
    def flash_utilization(self) -> float:
        return self.utilization.get("flash", 0.0)


def cache_populated(dbms: SimulatedDBMS) -> bool:
    """Has the flash cache reached its steady-state fill (Section 5.2)?"""
    cache = dbms.cache
    directory = getattr(cache, "directory", None)
    if directory is not None:  # mvFIFO family
        return directory.is_full
    capacity = getattr(cache, "capacity", None)
    cached = getattr(cache, "cached_pages", None)
    if capacity is not None and cached is not None:  # LC/TAC/Exadata
        return cached >= capacity * 0.95
    return True  # no cache to populate


def summarise_run(
    config: SystemConfig,
    dbms: SimulatedDBMS,
    stats: WorkloadStats,
    warmup_transactions: int,
) -> RunResult:
    """Snapshot the current measured region into a :class:`RunResult`.

    Shared by :class:`ExperimentRunner` and the trace-replay fast path
    (:mod:`repro.sim.replay`): both derive every metric from the same DBMS
    counters and workload stats, so replayed results are field-for-field
    comparable with full executions.
    """
    wall = dbms.wall_clock()
    resources = dbms.resource_times()
    utilization = {
        name: (busy / wall if wall > 0 else 0.0) for name, busy in resources.items()
    }
    flash_pages = dbms.flash.device.stats.total_pages if dbms.flash is not None else 0
    disk_pages = dbms.disk.device.stats.total_pages
    cache_stats = dbms.cache.stats
    tpmc = stats.neworder_commits * 60.0 / wall if wall > 0 else 0.0
    return RunResult(
        name=config.display_name,
        transactions=stats.executed,
        warmup_transactions=warmup_transactions,
        wall_seconds=wall,
        tpmc=tpmc,
        dram_hit_rate=dbms.buffer.stats.hit_rate,
        flash_hit_rate=cache_stats.flash_hit_rate,
        write_reduction=cache_stats.write_reduction,
        utilization=utilization,
        flash_page_iops=flash_pages / wall if wall > 0 else 0.0,
        disk_page_iops=disk_pages / wall if wall > 0 else 0.0,
        duplicate_fraction=getattr(dbms.cache, "duplicate_fraction", 0.0),
        resource_times=resources,
        cache_stats={
            "lookups": cache_stats.lookups,
            "hits": cache_stats.hits,
            "flash_writes": cache_stats.flash_writes,
            "disk_writes": cache_stats.disk_writes,
            "dirty_evictions": cache_stats.dirty_evictions,
            "skipped_enqueues": cache_stats.skipped_enqueues,
            "invalidated_dirty": cache_stats.invalidated_dirty,
            # TAC's per-entry metadata cost (Section 4.1); 0 elsewhere.
            "metadata_writes": getattr(dbms.cache, "metadata_writes", 0),
        },
    )


class ExperimentRunner:
    """Owns one (config, scale, workload) system-under-test end to end."""

    def __init__(
        self,
        config: SystemConfig,
        scale: ScaleProfile,
        seed: int = 42,
        loader: Callable[[SimulatedDBMS, ScaleProfile], Any] | None = None,
        workload: WorkloadSpec | None = None,
    ) -> None:
        self.config = config
        self.scale = scale
        self.seed = seed
        self.workload = TPCC_SPEC if workload is None else workload
        entry = get_workload_entry(self.workload.name)
        self.dbms = SimulatedDBMS(config)
        # ``loader`` lets the sweep engine substitute a warm-state fork
        # (:mod:`repro.sim.warmstate`) for the from-scratch load; the
        # default builds the database the usual way through the workload
        # registry (:mod:`repro.workload.registry`).
        if loader is None:
            self.database = load_workload(self.dbms, scale, seed, self.workload)
        else:
            self.database = loader(self.dbms, scale)
        self.driver = entry.make_driver(
            self.database, seed + 1, **entry.config_knobs(self.workload)
        )
        self._last_checkpoint_wall = 0.0
        self.warmup_transactions = 0

    # -- warm-up ----------------------------------------------------------------

    def warm_up(self, min_transactions: int = 500, max_transactions: int = 50_000) -> int:
        """Run until the flash cache is populated (Section 5.2), then reset.

        Returns the number of warm-up transactions executed.
        """
        executed = 0
        while executed < min_transactions or (
            executed < max_transactions and not self._cache_populated()
        ):
            self.driver.run_one()
            executed += 1
        self.dbms.reset_measurements()
        self.driver.stats.reset()
        if OBS.enabled:
            # Observability mirrors the measured region: zero the metric
            # values (handles stay valid) at the same boundary as the
            # device/cache counters.
            OBS.reset()
        self._last_checkpoint_wall = 0.0
        self.warmup_transactions = executed
        return executed

    def _cache_populated(self) -> bool:
        return cache_populated(self.dbms)

    def step(self) -> None:
        """Execute one workload transaction (the scenario stepping hook).

        Scenarios that schedule their own events between transactions —
        checkpoints, crashes (:mod:`repro.sim.scenario`) — drive the run
        one step at a time instead of through :meth:`measure`.
        """
        self.driver.run_one()

    # -- measurement ----------------------------------------------------------

    def measure(
        self,
        n_transactions: int,
        checkpoint_interval: float | None = None,
        series: ThroughputSeries | None = None,
        sample_every: int = 50,
    ) -> RunResult:
        """Run ``n_transactions`` in the measured region and summarise."""
        executed_at_sample = 0

        def tick() -> None:
            nonlocal executed_at_sample
            if checkpoint_interval is not None:
                wall = self.dbms.wall_clock()
                if wall - self._last_checkpoint_wall >= checkpoint_interval:
                    self.dbms.checkpoint()
                    self._last_checkpoint_wall = wall
            if series is not None:
                executed_at_sample += 1
                if executed_at_sample % sample_every == 0:
                    series.record(
                        self.dbms.wall_clock(), self.driver.stats.neworder_commits
                    )

        self.driver.run(n_transactions, checkpointer=tick)
        if series is not None:
            series.record(self.dbms.wall_clock(), self.driver.stats.neworder_commits)
        return self.summarise()

    def summarise(self) -> RunResult:
        """Snapshot the current measured region into a :class:`RunResult`."""
        return summarise_run(
            self.config, self.dbms, self.driver.stats, self.warmup_transactions
        )


def run_steady_state(
    config: SystemConfig,
    scale: ScaleProfile,
    measure_transactions: int,
    warmup_min: int = 500,
    warmup_max: int = 50_000,
    checkpoint_interval: float | None = None,
    seed: int = 42,
    workload: WorkloadSpec | None = None,
) -> RunResult:
    """One-call convenience: build → warm up → measure → summarise."""
    runner = ExperimentRunner(config, scale, seed=seed, workload=workload)
    runner.warm_up(warmup_min, warmup_max)
    return runner.measure(measure_transactions, checkpoint_interval)
