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
