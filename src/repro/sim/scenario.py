"""Scenario layer: one protocol object per kind of experiment run.

Before this module, the codebase had two parallel execution pipelines.
Steady-state cells (warm up until the cache is populated, reset counters,
measure N transactions) flowed through :class:`~repro.sim.parallel.CellSpec`
into the sweep and replay engines, while crash/restart runs (Section
5.5: run with a fixed checkpoint cadence, kill at the mid-point of an
interval, restart) were a hand-rolled loop that none of those engines
could execute.  A **scenario** unifies them: it owns
the run protocol, a runner owns the system under test, and

    scenario.execute(runner) -> RunResult | CrashRun

is the single contract every engine drives.  Three scenarios ship:

* :class:`SteadyStateScenario` — the historical warm-up → measure loop,
  returning :class:`~repro.sim.runner.RunResult`;
* :class:`CrashRecoveryScenario` — warm-up → run to the crash point →
  crash → restart, returning :class:`CrashRun` (which wraps the
  :class:`~repro.recovery.restart.RestartReport`);
* :class:`ServiceScenario` — warm-up → record per-transaction resource
  demands → run the closed-loop N-client discrete-event simulation of
  :mod:`repro.sim.service`, returning
  :class:`~repro.sim.service.ServiceResult`.

A runner is anything with the stepping interface both
:class:`~repro.sim.runner.ExperimentRunner` and
:class:`~repro.sim.replay.ReplayRunner` provide: ``warm_up``, ``measure``,
``step`` (one workload transaction), ``summarise``, plus ``dbms`` /
``config`` / ``warmup_transactions`` attributes.  Because the crash loop is
written once against that interface, a *replayed* crash cell executes the
exact same protocol as a full one: the boundary trace extends on demand up
to the crash point (``TraceRecorder.ensure`` — the trace is effectively
truncated at the crash), the simulated wall clock it breaks on is
bit-identical to full execution, and the restart then runs against the real
recovered components — so every :class:`RestartReport` field matches full
execution bit for bit (see DESIGN.md §11 for the argument).

Scenarios are small frozen dataclasses: picklable (crash cells fan out
through :mod:`repro.sim.parallel` like any other cell) and hashable.  This
module declares them, so it loads no engine code: the restart and the
service simulation are imported where a scenario executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Union, runtime_checkable

from repro.errors import ConfigError
from repro.obs import RegistrySnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.restart import RestartReport
    from repro.sim.runner import RunResult
    from repro.sim.service import ServiceResult

__all__ = [
    "Runner",
    "CrashRun",
    "ScenarioResult",
    "SteadyStateScenario",
    "CrashRecoveryScenario",
    "ServiceScenario",
    "run_until_crash_point",
    "crash_and_recover",
]


@runtime_checkable
class Runner(Protocol):
    """The stepping interface scenarios drive (structural, not nominal)."""

    def warm_up(self, min_transactions: int, max_transactions: int) -> int: ...

    def measure(self, n_transactions: int, checkpoint_interval: float | None = None): ...

    def step(self) -> None: ...


@dataclass
class CrashRun:
    """What happened before and after one scheduled crash (one table cell).

    The crash-side twin of :class:`~repro.sim.runner.RunResult`: a plain
    picklable record with the same ``name`` / ``warmup_transactions`` /
    ``obs`` envelope, so sweep engines, progress callbacks and JSON
    recorders can carry either result type through the same plumbing.
    """

    transactions_before_crash: int
    checkpoints_before_crash: int
    crash_wall_seconds: float
    report: RestartReport
    name: str = ""
    warmup_transactions: int = 0
    #: Observability snapshot (only populated when the cell ran with
    #: ``collect_obs`` — see :mod:`repro.sim.parallel`).
    obs: RegistrySnapshot | None = None

    @property
    def restart_seconds(self) -> float:
        """Total restart time — the Table 6 figure."""
        return self.report.total_time

    @property
    def redo_applied(self) -> int:
        return self.report.redo_applied

    @property
    def flash_read_fraction(self) -> float:
        """Fraction of recovery page fetches served by the flash cache."""
        return self.report.flash_read_fraction


#: The picklable result union every scenario execution produces.
ScenarioResult = Union["RunResult", CrashRun, "ServiceResult"]


@dataclass(frozen=True)
class SteadyStateScenario:
    """The historical protocol: warm up, reset counters, measure, summarise.

    ``execute`` is a runner's own ``warm_up`` then ``measure``, so results
    are bit-identical to driving an
    :class:`~repro.sim.runner.ExperimentRunner` by hand (pinned by
    ``tests/test_scenario.py``).
    """

    measure_transactions: int = 2000
    warmup_min: int = 500
    warmup_max: int = 15_000
    checkpoint_interval: float | None = None

    kind = "steady"

    def __post_init__(self) -> None:
        if self.measure_transactions < 1:
            raise ConfigError("measure_transactions must be >= 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive")

    def trace_bound(self) -> int:
        """Most transactions a replay of this scenario can ever consume."""
        return self.warmup_max + self.measure_transactions

    def execute(self, runner) -> RunResult:
        runner.warm_up(self.warmup_min, self.warmup_max)
        return runner.measure(
            self.measure_transactions, checkpoint_interval=self.checkpoint_interval
        )


@dataclass(frozen=True)
class CrashRecoveryScenario:
    """Section 5.5's crash protocol as a first-class scenario.

    Warm up, then drive the workload with checkpoints every
    ``checkpoint_interval`` simulated seconds; once at least
    ``min_checkpoints`` checkpoints have completed, kill the system when
    ``crash_point`` of the next interval has elapsed (the paper crashes at
    the mid-point, ``crash_point=0.5``); restart through
    :class:`~repro.recovery.restart.RecoveryManager` and report everything
    Table 6 measures.
    """

    checkpoint_interval: float = 2.0
    min_checkpoints: int = 2
    #: Where in the interval the kill lands, as a fraction (paper: 0.5).
    crash_point: float = 0.5
    #: Protocol safety bound: exceeding it raises instead of recording a
    #: "crash" that never followed the Section 5.5 schedule.
    max_transactions: int = 60_000
    warmup_min: int = 500
    warmup_max: int = 15_000

    kind = "crash"

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive")
        if not 0.0 < self.crash_point < 1.0:
            raise ConfigError("crash_point must be within (0, 1)")
        if self.min_checkpoints < 1:
            raise ConfigError("min_checkpoints must be >= 1")
        if self.max_transactions < 1:
            raise ConfigError("max_transactions must be >= 1")

    def trace_bound(self) -> int:
        """Most transactions a replay of this scenario can ever consume.

        The kill point truncates the measured phase, so the bound is the
        worst case: warm-up plus the full ``max_transactions`` budget.
        """
        return self.warmup_max + self.max_transactions

    def run_to_crash(self, runner) -> tuple[int, int]:
        """Warm up and drive the schedule to the kill point, without the kill.

        Returns ``(transactions executed, checkpoints taken)``.  The
        SIGKILL victim (:mod:`repro.sim.hardcrash`) stops here and dies
        for real; :meth:`execute` goes on to the in-process crash.
        """
        runner.warm_up(self.warmup_min, self.warmup_max)
        return run_until_crash_point(
            runner,
            self.checkpoint_interval,
            min_checkpoints=self.min_checkpoints,
            crash_point=self.crash_point,
            max_transactions=self.max_transactions,
        )

    def execute(self, runner) -> CrashRun:
        return crash_and_recover(runner, *self.run_to_crash(runner))


@dataclass(frozen=True)
class ServiceScenario:
    """The closed-loop service protocol as a first-class scenario.

    ``execute`` warms the system up exactly like
    :class:`SteadyStateScenario`, records ``measure_transactions`` demands
    from the real (or replayed) system, then runs the discrete-event
    simulation of :mod:`repro.sim.service` with ``n_clients`` closed-loop
    clients over that stream and returns a
    :class:`~repro.sim.service.ServiceResult`.  Frozen and picklable, so
    service cells fan out through :mod:`repro.sim.parallel` — including the
    trace-replay fast path — like any steady or crash cell.
    """

    n_clients: int = 50
    think_time_ms: float = 0.0
    measure_transactions: int = 2000
    max_inflight: int | None = None
    warmup_min: int = 500
    warmup_max: int = 15_000
    checkpoint_interval: float | None = None

    kind = "service"

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.think_time_ms < 0.0:
            raise ConfigError("think_time_ms must be >= 0")
        if self.measure_transactions < 1:
            raise ConfigError("measure_transactions must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 when set")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive")

    def trace_bound(self) -> int:
        """Most transactions a replay of this scenario can ever consume."""
        return self.warmup_max + self.measure_transactions

    def execute(self, runner) -> ServiceResult:
        # Looked up in the service module at call time, where a traced run
        # wraps ``record_demands``.
        from repro.sim.service import ServiceSimulation, record_demands

        runner.warm_up(self.warmup_min, self.warmup_max)
        demands = record_demands(
            runner, self.measure_transactions, self.checkpoint_interval
        )
        sim = ServiceSimulation(
            demands,
            n_clients=self.n_clients,
            think_time_seconds=self.think_time_ms / 1000.0,
            max_inflight=self.max_inflight,
        ).run()
        return sim.result(
            name=runner.config.display_name,
            think_time_ms=self.think_time_ms,
            warmup_transactions=runner.warmup_transactions,
        )


def run_until_crash_point(
    runner,
    checkpoint_interval: float,
    min_checkpoints: int = 2,
    crash_point: float = 0.5,
    max_transactions: int = 60_000,
) -> tuple[int, int]:
    """Drive the workload with periodic checkpoints until the crash point.

    The crash point is reached when ``min_checkpoints`` checkpoints have
    completed and ``crash_point`` of the current interval has elapsed.
    Returns ``(transactions executed, checkpoints taken)``; the caller owns
    the crash itself.  Exhausting ``max_transactions`` first raises
    :class:`~repro.errors.ConfigError` — a run that never reached its
    scheduled kill must not be recorded as a crash measurement.
    """
    if checkpoint_interval <= 0:
        raise ConfigError("checkpoint_interval must be positive")
    dbms = runner.dbms
    last_checkpoint = 0.0
    checkpoints = 0
    executed = 0
    threshold = crash_point * checkpoint_interval
    while executed < max_transactions:
        runner.step()
        executed += 1
        wall = dbms.wall_clock()
        if checkpoints >= min_checkpoints and wall - last_checkpoint >= threshold:
            return executed, checkpoints
        if wall - last_checkpoint >= checkpoint_interval:
            dbms.checkpoint()
            last_checkpoint = wall
            checkpoints += 1
    raise ConfigError(
        f"crash schedule never reached its kill point: {executed} "
        f"transaction(s) took {checkpoints} checkpoint(s) at interval "
        f"{checkpoint_interval} (need {min_checkpoints} plus "
        f"{crash_point:.0%} of an interval); raise max_transactions or "
        f"shorten the interval"
    )


def crash_and_recover(runner, executed: int, checkpoints: int) -> CrashRun:
    """Kill the runner's system, restart it, and assemble the record."""
    from repro.recovery.restart import RecoveryManager

    dbms = runner.dbms
    wall = dbms.wall_clock()
    dbms.crash()
    report = RecoveryManager(dbms).restart()
    return CrashRun(
        transactions_before_crash=executed,
        checkpoints_before_crash=checkpoints,
        crash_wall_seconds=wall,
        report=report,
        name=runner.config.display_name,
        warmup_transactions=runner.warmup_transactions,
    )
