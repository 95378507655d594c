"""Parallel experiment-execution engine for sweep grids.

The paper's evaluation is a grid — {policy} x {cache size} x {device} x
{checkpoint interval} — of *independent* steady-state simulations, which is
embarrassingly parallel.  This module fans such cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* A cell travels to a worker as a picklable :class:`CellSpec` — the fully
  materialised :class:`~repro.core.config.SystemConfig`, scale profile,
  seed, and measurement protocol — never as a closure.  Sweep factories are
  evaluated in the parent process, so even lambda factories parallelise;
  only the *configs they produce* must pickle.
* Per-cell seeds are derived from ``(seed, cell_key)`` with a stable hash
  (:func:`derive_cell_seed`) — never from worker identity or submission
  order — so a parallel run is bit-identical to a serial run of the same
  grid, and to any re-run at any ``jobs`` count.
* Results are collected **in grid order** regardless of completion order,
  and the optional ``on_cell`` / ``progress`` callbacks fire in that same
  deterministic order as results are gathered.
* When the pool cannot be created (restricted environments, missing
  semaphores) or dies mid-run, the remaining cells fall back to in-process
  serial execution with a :class:`RuntimeWarning` — the sweep always
  completes with identical results.
* ``run_cells(..., fast=True)`` routes eligible cells through the
  trace-replay fast path (:mod:`repro.sim.replay`): the boundary event
  stream is recorded once per ``(scale, seed, workload)`` and replayed per cell,
  bit-identically; ineligible cells are executed by :func:`run_cell`.
* Every executed cell, ``fast`` or not, starts from a fork of the
  per-process post-load snapshot (:mod:`repro.sim.warmstate`): the
  workload is loaded once per ``(scale, seed, workload)``, not per cell.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

from repro.core.config import SystemConfig
from repro.errors import ConfigError, SharedTraceExhausted
from repro.obs import OBS
from repro.sim.runner import ExperimentRunner, RunResult
from repro.sim.scenario import (
    CrashRecoveryScenario,
    ScenarioResult,
    ServiceScenario,
    SteadyStateScenario,
)
from repro.sim.trace import SharedTraceHandle, publish_boundary_trace
from repro.sim.warmstate import fork_database
from repro.tpcc.scale import ScaleProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.experiment import ExperimentConfig


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell, declaratively: everything a worker needs, picklable.

    This replaces the closure-based ``config_factory`` contract at the
    process boundary: the config is already built, so no user code crosses
    into the worker.
    """

    key: tuple
    config: SystemConfig
    scale: ScaleProfile
    seed: int
    #: Workload registry name plus canonical knob tuple (see
    #: :mod:`repro.workload.registry`); together with ``(scale, seed)``
    #: they name the boundary stream this cell replays.
    workload: str = "tpcc"
    workload_knobs: tuple = ()
    measure_transactions: int = 2000
    warmup_min: int = 500
    warmup_max: int = 15_000
    checkpoint_interval: float | None = None
    #: Collect a per-cell observability snapshot of the measured region
    #: into ``RunResult.obs``.  The snapshot holds only simulated
    #: quantities, so parallel and serial runs stay bit-identical.
    collect_obs: bool = False
    #: Permit the trace-replay fast path (:mod:`repro.sim.replay`) to serve
    #: this cell when ``run_cells(..., fast=True)``.  The boundary trace is
    #: recorded *above* the buffer pool, so replays are bit-identical for
    #: every config — set this ``False`` only to force a cell through full
    #: execution (e.g. to cross-check the replay against it).
    replay_ok: bool = True
    #: The run protocol for this cell.  ``None`` (the default, and the
    #: historical behaviour) resolves to a :class:`SteadyStateScenario`
    #: built from the measurement fields above; a
    #: :class:`CrashRecoveryScenario` turns the cell into a Table 6
    #: crash/restart measurement returning a
    #: :class:`~repro.sim.scenario.CrashRun`; a :class:`ServiceScenario`
    #: turns it into a closed-loop N-client latency measurement returning
    #: a :class:`~repro.sim.service.ServiceResult`.
    scenario: (
        SteadyStateScenario | CrashRecoveryScenario | ServiceScenario | None
    ) = None
    #: Refcounted handle to a boundary trace the parent published into
    #: shared memory (see :mod:`repro.sim.trace`).  Set by the fast sweep
    #: engine on the copies it ships to replay workers — user code never
    #: sets it.  The pickled handle carries only the segment name and
    #: lengths; the worker attaches a zero-copy view and replays from it.
    shared_trace: SharedTraceHandle | None = None

    def workload_spec(self):
        """Canonical :class:`~repro.workload.registry.WorkloadSpec` for
        this cell (validated; hashable, so it keys replay groups)."""
        from repro.workload.registry import workload_spec

        return workload_spec(self.workload, dict(self.workload_knobs))

    def resolve_scenario(
        self,
    ) -> SteadyStateScenario | CrashRecoveryScenario | ServiceScenario:
        """The scenario this cell executes (defaulting to steady state)."""
        if self.scenario is not None:
            return self.scenario
        return SteadyStateScenario(
            measure_transactions=self.measure_transactions,
            warmup_min=self.warmup_min,
            warmup_max=self.warmup_max,
            checkpoint_interval=self.checkpoint_interval,
        )

    @classmethod
    def from_config(
        cls, key: tuple, experiment: "ExperimentConfig", **overrides
    ) -> "CellSpec":
        """Lower an :class:`~repro.sim.experiment.ExperimentConfig` to a cell.

        The experiment carries both the system description (lowered via
        :meth:`~repro.sim.experiment.ExperimentConfig.system_config`) and
        the measurement protocol, so this is the one-call bridge from the
        declarative API to the sweep engine.  ``overrides`` replace any of
        the resulting spec's own fields (e.g. ``replay_ok=False`` or a
        per-cell ``seed``).
        """
        params = dict(
            key=key,
            config=experiment.system_config(),
            scale=experiment.scale,
            seed=experiment.seed,
            workload=experiment.workload,
            workload_knobs=experiment.workload_knobs,
            measure_transactions=experiment.measure_transactions,
            warmup_min=experiment.warmup_min,
            warmup_max=experiment.warmup_max,
            checkpoint_interval=experiment.checkpoint_interval,
            collect_obs=experiment.collect_obs,
            # Steady experiments leave ``scenario=None`` so the spec's own
            # measurement fields (including any ``overrides``) stay
            # authoritative; crash experiments carry their protocol along.
            scenario=(
                None
                if experiment.scenario == "steady"
                else experiment.build_scenario()
            ),
        )
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class CellProgress:
    """Progress snapshot handed to ``progress`` callbacks, one per cell."""

    completed: int
    total: int
    key: tuple
    result: ScenarioResult
    #: Real (harness) seconds since the sweep started.
    elapsed_seconds: float


def derive_cell_seed(seed: int, key: tuple) -> int:
    """Stable per-cell seed from ``(seed, cell_key)``.

    Uses SHA-256 of the canonical ``repr`` rather than :func:`hash` so the
    value is identical across processes and interpreter runs (``hash`` is
    randomised per process for strings).  Worker identity never enters the
    derivation — that is what makes parallel and serial sweeps bit-identical.
    """
    digest = hashlib.sha256(f"{seed}|{key!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF


def _execute_cell(
    spec: CellSpec, make_runner: Callable[[], ExperimentRunner]
) -> ScenarioResult:
    """Shared cell protocol: obs bracket, then the spec's scenario.

    The scenario (steady-state measurement or crash/restart — see
    :mod:`repro.sim.scenario`) owns the warm-up and the run; this wrapper
    owns the observability bracket.  With ``collect_obs`` the global
    registry is cleared before the cell and snapshotted after it, so every
    snapshot names exactly the metrics this cell touched — identical
    whether the cell ran in-process or in a pool worker (fresh registry
    either way).  The prior enabled state is restored afterwards — also
    when the cell raises — so mixed sweeps behave.
    """
    obs_was_enabled = OBS.enabled
    if spec.collect_obs:
        OBS.clear()
        OBS.enable()
    try:
        result = spec.resolve_scenario().execute(make_runner())
        if spec.collect_obs:
            result.obs = OBS.snapshot()
    finally:
        if spec.collect_obs and not obs_was_enabled:
            OBS.disable()
    return result


def run_cell(spec: CellSpec) -> ScenarioResult:
    """Execute one cell start-to-finish (module-level: the worker target).

    Every transaction is executed; the initial population is not.  It is
    outside every measurement (the paper's §5.2) and independent of every knob,
    so the cell forks the per-process post-load snapshot
    (:mod:`repro.sim.warmstate`) — bit-identical to a fresh load, which
    ``ExperimentRunner(...)`` without a ``loader`` still performs.
    """
    workload = spec.workload_spec()
    return _execute_cell(
        spec,
        lambda: ExperimentRunner(
            spec.config,
            spec.scale,
            seed=spec.seed,
            loader=lambda dbms, scale: fork_database(
                dbms, scale, spec.seed, workload=workload
            ),
            workload=workload,
        ),
    )


#: Second name of the one worker: the frozen ``perf/checks.py`` imports it.
run_cell_warm = run_cell


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a jobs request: ``None``/``0`` mean one per available CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


def ensure_picklable(specs: Sequence[CellSpec]) -> None:
    """Raise a clear error before submitting anything unpicklable to a pool."""
    for spec in specs:
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ConfigError(
                f"sweep cell {spec.key!r} cannot be sent to a worker process "
                f"({exc}); make the cell's config picklable or run with "
                f"jobs=1"
            ) from exc


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int | None = 1,
    on_cell: Callable[[tuple, ScenarioResult], None] | None = None,
    progress: Callable[[CellProgress], None] | None = None,
    fast: bool = False,
) -> dict[tuple, ScenarioResult]:
    """Run every cell; return ``{key: result}`` in the order of ``specs``.

    ``jobs=1`` (the default) runs in-process; ``jobs>1`` uses a process
    pool; ``jobs in (None, 0)`` uses one worker per CPU.  Callbacks fire in
    spec order as results are gathered, in every mode.

    ``fast=True`` serves cells through the trace-replay fast path
    (:mod:`repro.sim.replay`): the boundary event stream for each
    ``(scale, seed, workload)`` is recorded once (or loaded from the persistent trace
    cache) and every replay-eligible cell replays it against its own cache
    policy and device stack — bit-identical results at a fraction of the
    wall-clock.  Cells that opt out (``replay_ok=False``) or whose
    recording would not amortise (a lone cell with no existing trace) fall
    back to full execution, exactly as with ``fast=False``.
    """
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ConfigError("sweep cells must have unique keys")
    if fast:
        return _run_cells_fast(specs, jobs, on_cell, progress)
    return _run_cells(specs, jobs, on_cell, progress)


def _run_cells(
    specs: Sequence[CellSpec],
    jobs: int | None,
    on_cell: Callable[[tuple, ScenarioResult], None] | None,
    progress: Callable[[CellProgress], None] | None,
) -> dict[tuple, ScenarioResult]:
    """Full-execution engine: :func:`run_cell` per cell, pooled when asked."""
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    results: dict[tuple, ScenarioResult] = {}

    def gather(spec: CellSpec, result: ScenarioResult) -> None:
        results[spec.key] = result
        if on_cell is not None:
            on_cell(spec.key, result)
        if progress is not None:
            progress(
                CellProgress(
                    completed=len(results),
                    total=len(specs),
                    key=spec.key,
                    result=result,
                    elapsed_seconds=time.perf_counter() - start,
                )
            )

    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            gather(spec, run_cell(spec))
        return results

    ensure_picklable(specs)
    try:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    except (OSError, ValueError, PermissionError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); running sweep serially",
            RuntimeWarning,
            stacklevel=2,
        )
        for spec in specs:
            gather(spec, run_cell(spec))
        return results

    with executor:
        try:
            pending = [(spec, executor.submit(run_cell, spec)) for spec in specs]
        except (OSError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool failed at submit ({exc}); running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            for spec in specs:
                gather(spec, run_cell(spec))
            return results
        for spec, future in pending:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                # A worker died (OOM killer, container limits).  Finish the
                # remaining cells in-process: slower, never wrong.
                warnings.warn(
                    f"process pool broke mid-sweep ({exc}); finishing "
                    f"remaining cells serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                for tail_spec, tail_future in pending:
                    if tail_spec.key not in results:
                        gather(tail_spec, run_cell(tail_spec))
                break
            gather(spec, result)
    return results


class _SharedReplayFailed:
    """Worker-side sentinel: a cell could not replay from its shared trace.

    Returned (not raised) by :func:`replay_shared_cell` so one exhausted
    cell never poisons its future or the pool; pickling round-trips to a
    fresh instance, so the parent checks ``isinstance``, never identity.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


def replay_shared_cell(spec: CellSpec) -> ScenarioResult | _SharedReplayFailed:
    """Replay one cell from its published shared trace (pool worker target).

    Attaches to the segment once per worker process (the attachment is
    cached and reused by every later cell this worker replays from the
    same segment).  A replay that outruns the immutable segment, or a
    segment that has vanished, returns a :class:`_SharedReplayFailed`
    marker; the parent re-replays that cell against its live recorder.
    """
    from repro.sim.replay import attached_recorder, replay_cell

    try:
        return replay_cell(spec, attached_recorder(spec))
    except (SharedTraceExhausted, OSError) as exc:
        return _SharedReplayFailed(str(exc))


def _replay_pool(
    specs: Sequence[CellSpec], jobs: int
) -> dict[tuple, ScenarioResult | _SharedReplayFailed]:
    """Fan shared-trace replays out over a process pool; partial on failure.

    Mirrors the full-execution engine's pool degradation, but *returns*
    whatever completed instead of re-running in place — any cell missing
    from the result (pool unavailable, worker crash, unpicklable spec) is
    replayed by the caller in the parent, so the sweep always completes.
    """
    results: dict[tuple, ScenarioResult | _SharedReplayFailed] = {}
    try:
        ensure_picklable(specs)
    except ConfigError as exc:
        warnings.warn(
            f"sweep cell not picklable ({exc}); replaying shared cells in "
            f"the parent",
            RuntimeWarning,
            stacklevel=3,
        )
        return results
    try:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    except (OSError, ValueError, PermissionError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); replaying shared cells in "
            f"the parent",
            RuntimeWarning,
            stacklevel=3,
        )
        return results
    with executor:
        try:
            pending = [
                (spec, executor.submit(replay_shared_cell, spec)) for spec in specs
            ]
        except (OSError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool failed at submit ({exc}); replaying shared "
                f"cells in the parent",
                RuntimeWarning,
                stacklevel=3,
            )
            return results
        for spec, future in pending:
            try:
                results[spec.key] = future.result()
            except BrokenProcessPool as exc:
                warnings.warn(
                    f"process pool broke mid-replay ({exc}); finishing "
                    f"remaining cells in the parent",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
    return results


def _run_cells_fast(
    specs: Sequence[CellSpec],
    jobs: int | None,
    on_cell: Callable[[tuple, ScenarioResult], None] | None,
    progress: Callable[[CellProgress], None] | None,
) -> dict[tuple, ScenarioResult]:
    """Trace-replay engine: record once per stream identity, replay per cell.

    Partitioning: a cell replays when it allows it (``replay_ok``) and the
    one-off recording cost amortises — either another cell shares its
    ``(scale, seed, workload)`` stream, or a replay source for it already
    exists (live recorder in this process, or the persistent cache).
    Everything else full-executes through :func:`run_cell`, with the usual
    process-pool path when ``jobs`` allows.

    Replay distribution: with ``jobs > 1``, each stream group's
    trace is extended once to the group's worst-case consumption (the max
    of the members' scenario :meth:`trace_bound`s), published into shared
    memory once, and every member fans out to pool workers replaying
    zero-copy from the same segment (steady *and* crash cells — a crash
    cell's kill point is just an early stop within the bound).  Cells a
    worker could not serve (vanished segment, pool failure) are
    re-replayed in the parent against the live recorder, so results are
    always complete and bit-identical to a serial sweep.  At ``jobs=1``
    every replay stays in the parent, exactly as before.  Results and
    callbacks keep the original spec order, like the full-execution engine.
    """
    from repro.sim.replay import (
        get_recorder,
        replay_cell,
        replay_source_exists,
        save_recorded_traces,
    )

    start = time.perf_counter()
    streams = [(spec.scale, spec.seed, spec.workload_spec()) for spec in specs]
    group_sizes: dict[tuple, int] = {}
    for spec, stream in zip(specs, streams):
        if spec.replay_ok:
            group_sizes[stream] = group_sizes.get(stream, 0) + 1

    groups: dict[tuple, list[CellSpec]] = {}
    executed: list[CellSpec] = []
    for spec, stream in zip(specs, streams):
        if spec.replay_ok and (
            group_sizes[stream] >= 2 or replay_source_exists(*stream)
        ):
            groups.setdefault(stream, []).append(spec)
        else:
            executed.append(spec)

    results: dict[tuple, ScenarioResult] = {}
    if executed:
        results.update(_run_cells(executed, jobs, None, None))

    jobs_n = resolve_jobs(jobs)
    n_shared = 0
    n_exhausted = 0
    published: list[SharedTraceHandle] = []
    try:
        for (scale, seed, workload), members in groups.items():
            recorder = get_recorder(scale, seed, workload)
            handle = None
            if jobs_n > 1 and len(members) >= 2:
                # Cover the group's worst case up front so no worker can
                # outrun the immutable segment (recording is cheap next to
                # even one replay; the exhaustion path below stays as a
                # safety net, not the expected route).
                bound = max(
                    spec.resolve_scenario().trace_bound() for spec in members
                )
                recorder.ensure(bound)
                handle = publish_boundary_trace(recorder.longest_trace())
            if handle is not None:
                published.append(handle.acquire())
                shared = [replace(s, shared_trace=handle) for s in members]
                pool_results = _replay_pool(shared, jobs_n)
                for spec in members:
                    got = pool_results.get(spec.key)
                    if got is None or isinstance(got, _SharedReplayFailed):
                        n_exhausted += 1
                        got = replay_cell(spec, recorder)
                    else:
                        n_shared += 1
                    results[spec.key] = got
            else:
                for spec in members:
                    results[spec.key] = replay_cell(spec, recorder)
    finally:
        # The segments die with the sweep, success or not; the atexit hook
        # in repro.sim.trace is only a backstop for harder crashes.
        for handle in published:
            handle.release()

    if OBS.enabled:
        # After the cells: each cell's warm-up resets counters at the
        # measurement boundary, which would zero a count taken earlier.
        if executed:
            OBS.counter("replay.fallbacks").inc(len(executed))
        if n_shared:
            OBS.counter("replay.shared.cells").inc(n_shared)
        if n_exhausted:
            OBS.counter("replay.shared.exhausted").inc(n_exhausted)
    save_recorded_traces()

    ordered: dict[tuple, ScenarioResult] = {}
    for index, spec in enumerate(specs):
        result = results[spec.key]
        ordered[spec.key] = result
        if on_cell is not None:
            on_cell(spec.key, result)
        if progress is not None:
            progress(
                CellProgress(
                    completed=index + 1,
                    total=len(specs),
                    key=spec.key,
                    result=result,
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
    return ordered


def progress_printer(stream: TextIO | None = None) -> Callable[[CellProgress], None]:
    """A ready-made ``progress`` callback: one status line per finished cell.

    Prints cells-completed, the cell key, the cell's headline figure
    (throughput for steady cells, restart time for crash cells, throughput
    plus p95 latency for service cells), and wall-clock elapsed — enough to
    watch a long grid from a terminal::

        [3/8] ('face', 1024): 4,312 tpmC  (12.4s elapsed)
        [4/8] ('face', 2.0): restart 0.84s  (13.1s elapsed)
        [5/8] ('face', 50): 4,209 tpmC p95 38ms  (14.0s elapsed)
    """
    from repro.sim.service import ServiceResult

    out = stream if stream is not None else sys.stderr

    def report(p: CellProgress) -> None:
        result = p.result
        if isinstance(result, ServiceResult):
            headline = (
                f"{result.tpmc:,.0f} tpmC p95 {result.p95_seconds * 1000:,.0f}ms"
            )
        elif isinstance(result, RunResult):
            headline = f"{result.tpmc:,.0f} tpmC"
        else:
            headline = f"restart {result.restart_seconds:.2f}s"
        print(
            f"[{p.completed}/{p.total}] {p.key}: {headline}  "
            f"({p.elapsed_seconds:.1f}s elapsed)",
            file=out,
        )

    return report
