"""Simulation measurement layer: runs, crash schedules, traces, series.

The experiment-orchestration layer above the DBMS:
:class:`~repro.sim.runner.ExperimentRunner` (warm-up / measure discipline
of Section 5.2), the parallel execution engine for grids of
:class:`~repro.sim.parallel.CellSpec` cells (:mod:`~repro.sim.parallel`),
the run protocols — steady state, the Section 5.5 crash schedule, closed-loop
service — (:mod:`~repro.sim.scenario`), windowed throughput
series for Figure 6 (:mod:`~repro.sim.metrics`), I/O tracing and the
boundary-trace codec (:mod:`~repro.sim.trace`), the declarative
:class:`~repro.sim.experiment.ExperimentConfig`, and the closed-loop
concurrent-client service layer (:mod:`~repro.sim.service`: N clients,
per-device FIFO queues, p50/p95/p99 latency).  Everything is deterministic
under a seed, and sweep cells carry optional observability snapshots
(``collect_obs``).
"""

from repro.sim.experiment import ExperimentConfig
from repro.sim.metrics import ThroughputSample, ThroughputSeries
from repro.sim.parallel import (
    CellProgress,
    CellSpec,
    derive_cell_seed,
    progress_printer,
    replay_mismatches,
    run_cell,
    run_cells,
)
from repro.sim.runner import ExperimentRunner, RunResult, run_steady_state
from repro.sim.scenario import (
    CrashRecoveryScenario,
    CrashRun,
    ServiceScenario,
    SteadyStateScenario,
    run_until_crash_point,
)
from repro.sim.service import (
    ServiceResult,
    ServiceSimulation,
    TxnDemand,
    record_demands,
)
from repro.sim.trace import (
    IOTracer,
    TraceEvent,
    decode_boundary,
    encode_boundary,
    replay,
)

__all__ = [
    "CellProgress",
    "CellSpec",
    "CrashRecoveryScenario",
    "CrashRun",
    "ExperimentConfig",
    "ExperimentRunner",
    "IOTracer",
    "RunResult",
    "ServiceResult",
    "ServiceScenario",
    "ServiceSimulation",
    "SteadyStateScenario",
    "ThroughputSample",
    "ThroughputSeries",
    "TraceEvent",
    "decode_boundary",
    "derive_cell_seed",
    "encode_boundary",
    "progress_printer",
    "record_demands",
    "replay",
    "replay_mismatches",
    "run_cell",
    "run_cells",
    "run_steady_state",
    "run_until_crash_point",
]
