"""Replay-driven ablation engine: dense knob grids over one recorded workload.

The paper's §3.2/§3.3 design arguments — cache clean pages or only dirty
ones, write-back or write-through, how deep the Group Second Chance scan
may look — are all "same workload, one knob changed" experiments.  That is
exactly the shape the trace-replay fast path (:mod:`repro.sim.replay`)
makes nearly free: every cell of an ablation grid shares the base
experiment's ``(scale, seed)``, so the boundary stream is recorded (or
loaded from the compressed persistent cache) once and each cell replays it
against its own knob setting, bit-identically to full execution.

The API is declarative.  A study is a base
:class:`~repro.sim.experiment.ExperimentConfig` plus named axes::

    study = AblationStudy(base, {"admission": None, "scan_depth": (16, 64)})
    results = study.run()
    print(results.sensitivity_table("scan_depth"))

Axes are looked up in :data:`AXES` — the catalogue of paper-faithful
ablation dimensions (admission policy, sync granularity, GR/GSC batch
size, checkpoint cadence, flash-cache size fraction, cache policy, DRAM
replacement) — with ``None`` meaning "this axis's canonical values"; any
:class:`ExperimentConfig` field name is also accepted as an ad-hoc axis.
Cells are expanded densely (full factorial, axes in insertion order) as
``base.with_(field=value)`` and executed through
``run_cells(..., fast=True)``; :class:`AblationResults` then reduces the
grid to per-axis marginal sensitivities, renders paper-style tables, and
serialises to the ``BENCH_ablation.json`` record
(``python benchmarks/record.py ablation``).

:func:`verify_parity` spot-checks the engine's core claim by re-running
sample cells under full execution and comparing every simulated metric
bit-for-bit — the replay parity flag the ablation record is gated on.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.analysis.tables import format_table
from repro.errors import ConfigError
from repro.flashcache.registry import available_policies
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellProgress, CellSpec, run_cell, run_cells
from repro.sim.runner import RunResult
from repro.sim.scenario import CrashRun, ScenarioResult
from repro.sim.service import ServiceResult
from repro.workload.registry import available_workloads


@dataclass(frozen=True)
class AblationAxis:
    """One named ablation dimension.

    ``field`` is the :class:`ExperimentConfig` field the axis overrides;
    ``values`` are the canonical (paper) settings used when a study passes
    ``None``; ``labels`` optionally maps raw values to the paper's wording
    for table rendering.
    """

    name: str
    field: str
    values: tuple
    paper: str
    description: str
    labels: Mapping[object, str] | None = None

    def label(self, value: object) -> str:
        if self.labels is not None and value in self.labels:
            return self.labels[value]
        return str(value)


def _policy_values() -> tuple[str, ...]:
    """Every registered policy that actually exercises the flash cache."""
    return tuple(name for name in available_policies() if name != "hdd-only")


#: Paper-faithful ablation axes, keyed by short name.
AXES: dict[str, AblationAxis] = {
    axis.name: axis
    for axis in (
        AblationAxis(
            name="admission",
            field="face_cache_clean",
            values=(True, False),
            paper="§3.2",
            description="flash admission: cache clean+dirty evictions, or "
            "dirty only",
            labels={True: "clean+dirty", False: "dirty-only"},
        ),
        AblationAxis(
            name="sync",
            field="face_write_through",
            values=(False, True),
            paper="§3.2",
            description="sync granularity: write-back vs write-through to disk",
            labels={False: "write-back", True: "write-through"},
        ),
        AblationAxis(
            name="scan_depth",
            field="scan_depth",
            values=(16, 32, 64, 128),
            paper="§3.3",
            description="GR/GSC batch size (pages scanned per group replacement)",
        ),
        AblationAxis(
            name="checkpoint",
            field="checkpoint_interval",
            values=(None, 10.0, 2.0),
            paper="§4.2",
            description="checkpoint cadence in simulated seconds (None = off)",
            labels={None: "off"},
        ),
        AblationAxis(
            name="cache_fraction",
            field="cache_fraction",
            values=(0.04, 0.08, 0.12, 0.16, 0.20),
            paper="§5.2",
            description="flash cache size as a fraction of the database",
        ),
        AblationAxis(
            name="policy",
            field="policy",
            values=_policy_values(),
            paper="Table 2",
            description="flash-cache policy (registry name)",
        ),
        AblationAxis(
            name="workload",
            field="workload",
            values=available_workloads(),
            paper="§5.1",
            description="workload driving the cells (registry name); each "
            "value records / replays its own boundary stream",
        ),
        AblationAxis(
            name="dram",
            field="buffer_policy",
            values=("lru", "clock"),
            paper="§2",
            description="DRAM buffer replacement policy",
        ),
        AblationAxis(
            name="crash_point",
            field="crash_point",
            values=(0.25, 0.5, 0.75),
            paper="§5.5",
            description="where in a checkpoint interval the kill lands "
            "(the paper crashes at the mid-point)",
        ),
        AblationAxis(
            name="ckpt_segment",
            field="ckpt_segment_entries",
            values=(32, 64, 128),
            paper="§4.2",
            description="flash metadata-checkpoint segment size "
            "(mvFIFO entries per segment)",
        ),
    )
}

_FIELD_TO_AXIS = {axis.field: axis for axis in AXES.values()}


def resolve_axis(name: str) -> AblationAxis:
    """Axis by short name, or ad hoc by :class:`ExperimentConfig` field."""
    axis = AXES.get(name) or _FIELD_TO_AXIS.get(name)
    if axis is not None:
        return axis
    if name in {f.name for f in dataclasses.fields(ExperimentConfig)}:
        return AblationAxis(
            name=name,
            field=name,
            values=(),
            paper="",
            description=f"ad-hoc axis over ExperimentConfig.{name}",
        )
    known = ", ".join(AXES)
    raise ConfigError(
        f"unknown ablation axis {name!r} (named axes: {known}; any "
        f"ExperimentConfig field also works)"
    )


class AblationStudy:
    """A base experiment plus axes, expanded to a dense replayable grid."""

    def __init__(
        self,
        base: ExperimentConfig,
        axes: Mapping[str, Sequence | None],
    ) -> None:
        if not axes:
            raise ConfigError("an ablation study needs at least one axis")
        self.base = base
        self.axes: dict[str, AblationAxis] = {}
        self.values: dict[str, tuple] = {}
        for name, values in axes.items():
            axis = resolve_axis(name)
            chosen = tuple(values) if values is not None else axis.values
            if not chosen:
                raise ConfigError(
                    f"axis {axis.name!r} has no values (pass them explicitly)"
                )
            if len(set(chosen)) != len(chosen):
                raise ConfigError(f"axis {axis.name!r} repeats a value")
            if axis.name in self.axes:
                raise ConfigError(f"axis {axis.name!r} given twice")
            self.axes[axis.name] = axis
            self.values[axis.name] = chosen

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(self.axes)

    def __len__(self) -> int:
        n = 1
        for values in self.values.values():
            n *= len(values)
        return n

    def cell_configs(self) -> list[tuple[tuple, ExperimentConfig]]:
        """Every grid cell as ``(key, derived config)``, in grid order.

        The key is the tuple of axis values (axes in insertion order); the
        config is ``base.with_(field=value, ...)`` — the whole redesign in
        one line.  Every cell keeps the base's ``(scale, seed)``, which is
        what lets one boundary trace serve the entire grid.
        """
        names = list(self.axes)

        def expand(prefix: tuple, overrides: dict, remaining: list[str]):
            if not remaining:
                yield prefix, self.base.with_(**overrides)
                return
            head, *tail = remaining
            axis = self.axes[head]
            for value in self.values[head]:
                yield from expand(
                    prefix + (value,), {**overrides, axis.field: value}, tail
                )

        return list(expand((), {}, names))

    def cell_specs(self) -> list[CellSpec]:
        return [
            CellSpec.from_config(key, config)
            for key, config in self.cell_configs()
        ]

    def run(
        self,
        jobs: int | None = 1,
        progress: Callable[[CellProgress], None] | None = None,
        fast: bool = True,
    ) -> "AblationResults":
        """Execute the grid; ``fast=True`` (the default) replays one shared
        boundary trace per cell — the engine's whole reason to exist."""
        start = time.perf_counter()
        cells = run_cells(self.cell_specs(), jobs=jobs, progress=progress, fast=fast)
        return AblationResults(
            study=self,
            cells=cells,
            wall_seconds=time.perf_counter() - start,
        )


@dataclass
class AblationResults:
    """A completed grid plus its per-axis marginal reductions.

    Works for every result kind: a steady grid holds
    :class:`~repro.sim.runner.RunResult` cells and defaults its reductions
    to throughput metrics; a crash grid (base experiment with
    ``scenario="crash"``) holds :class:`~repro.sim.scenario.CrashRun` cells
    and defaults to the Table 6 restart metrics; a service grid
    (``scenario="service"``) holds
    :class:`~repro.sim.service.ServiceResult` cells and defaults to
    throughput plus tail latency.
    """

    study: AblationStudy
    cells: dict[tuple, ScenarioResult]
    #: Harness (host) seconds for the whole grid, recording included.
    wall_seconds: float = 0.0

    def get(self, *key) -> ScenarioResult:
        return self.cells[tuple(key)]

    @property
    def is_crash(self) -> bool:
        """True when the grid's cells are crash/restart measurements."""
        return any(isinstance(r, CrashRun) for r in self.cells.values())

    @property
    def is_service(self) -> bool:
        """True when the grid's cells are closed-loop service measurements."""
        return any(isinstance(r, ServiceResult) for r in self.cells.values())

    @property
    def default_metric(self) -> str:
        return "restart_seconds" if self.is_crash else "tpmc"

    @property
    def default_metrics(self) -> tuple[str, ...]:
        if self.is_crash:
            return ("restart_seconds", "flash_read_fraction", "redo_applied")
        if self.is_service:
            return ("tpmc", "p95_seconds", "p99_seconds")
        return ("tpmc", "flash_hit_rate", "write_reduction")

    def sensitivity(
        self, axis: str, metric: str | None = None
    ) -> list[tuple[object, float, float, float, int]]:
        """Marginal statistics of ``metric`` along one axis.

        For each axis value: ``(value, mean, min, max, n)`` over every grid
        cell holding that value — i.e. averaged across all settings of the
        *other* axes, the standard main-effect view of a dense grid.
        ``metric=None`` uses :attr:`default_metric` (throughput for steady
        grids, restart time for crash grids).
        """
        if metric is None:
            metric = self.default_metric
        if axis not in self.study.axes:
            raise ConfigError(
                f"unknown axis {axis!r} (study axes: {', '.join(self.study.axes)})"
            )
        position = list(self.study.axes).index(axis)
        out = []
        for value in self.study.values[axis]:
            samples = [
                getattr(result, metric)
                for key, result in self.cells.items()
                if key[position] == value
            ]
            out.append(
                (value, sum(samples) / len(samples), min(samples), max(samples),
                 len(samples))
            )
        return out

    def spread(self, axis: str, metric: str | None = None) -> float:
        """Relative main-effect size: (best - worst) / worst of the
        marginal means — the one-number "does this knob matter" figure."""
        means = [mean for _, mean, _, _, _ in self.sensitivity(axis, metric)]
        worst = min(means)
        return (max(means) - worst) / worst if worst else 0.0

    def sensitivity_table(
        self,
        axis: str,
        metrics: Sequence[str] | None = None,
    ) -> str:
        """Paper-style fixed-width table of one axis's marginal means."""
        if metrics is None:
            metrics = self.default_metrics
        ax = self.study.axes[axis] if axis in self.study.axes else resolve_axis(axis)
        rows = []
        per_metric = {m: self.sensitivity(axis, m) for m in metrics}
        for index, value in enumerate(self.study.values[axis]):
            row: list[object] = [ax.label(value)]
            for metric in metrics:
                _, mean, lo, hi, _ = per_metric[metric][index]
                # Pre-format: counts and throughput at one decimal, rates
                # and restart times at four (the table renderer would
                # otherwise flatten 0.0347 s to "0.0").
                row.append(
                    f"{mean:,.1f}"
                    if metric in ("tpmc", "redo_applied")
                    else f"{mean:.4f}"
                )
            rows.append(row)
        n_other = len(self.cells) // max(1, len(self.study.values[axis]))
        title = (
            f"Ablation - {ax.name} ({ax.paper}): marginal means over "
            f"{n_other} cell(s) per value"
        )
        return format_table(title, [ax.name, *metrics], rows, width=16)

    def _cell_record(self, key: tuple, result: ScenarioResult) -> dict:
        if isinstance(result, CrashRun):
            return {
                "key": list(key),
                "restart_seconds": round(result.restart_seconds, 6),
                "redo_applied": result.redo_applied,
                "flash_read_fraction": round(result.flash_read_fraction, 6),
                "transactions_before_crash": result.transactions_before_crash,
                "checkpoints_before_crash": result.checkpoints_before_crash,
                "crash_wall_seconds": round(result.crash_wall_seconds, 4),
            }
        if isinstance(result, ServiceResult):
            return {
                "key": list(key),
                "n_clients": result.n_clients,
                "tpmc": round(result.tpmc, 2),
                "tps": round(result.tps, 2),
                "p50_ms": round(result.p50_seconds * 1000.0, 4),
                "p95_ms": round(result.p95_seconds * 1000.0, 4),
                "p99_ms": round(result.p99_seconds * 1000.0, 4),
                "mean_ms": round(result.latency_mean * 1000.0, 4),
                "max_ms": round(result.latency_max * 1000.0, 4),
                "bottleneck": result.bottleneck,
                "utilization": {
                    name: round(value, 4)
                    for name, value in result.utilization.items()
                },
                "sim_seconds": round(result.sim_seconds, 4),
            }
        return {
            "key": list(key),
            "tpmc": round(result.tpmc, 2),
            "flash_hit_rate": round(result.flash_hit_rate, 6),
            "write_reduction": round(result.write_reduction, 6),
            "dram_hit_rate": round(result.dram_hit_rate, 6),
            "sim_wall_seconds": round(result.wall_seconds, 4),
        }

    def to_record(self) -> dict:
        """JSON-able record (the payload of ``BENCH_ablation.json`` /
        ``BENCH_recovery.json``)."""
        study = self.study
        metric = self.default_metric
        return {
            "base": study.base.describe(),
            "seed": study.base.seed,
            "axes": {name: list(values) for name, values in study.values.items()},
            "n_cells": len(self.cells),
            "wall_seconds": round(self.wall_seconds, 3),
            "wall_seconds_per_cell": round(self.wall_seconds / len(self.cells), 4)
            if self.cells else 0.0,
            "metric": metric,
            "cells": [
                self._cell_record(key, result)
                for key, result in self.cells.items()
            ],
            "sensitivity": {
                name: [
                    {
                        "value": value,
                        f"mean_{metric}": round(mean, 6),
                        f"min_{metric}": round(lo, 6),
                        f"max_{metric}": round(hi, 6),
                        "n": n,
                    }
                    for value, mean, lo, hi, n in self.sensitivity(name)
                ]
                for name in study.axes
            },
            "spread": {
                name: round(self.spread(name), 4) for name in study.axes
            },
        }


def _comparable(result: ScenarioResult) -> dict:
    """A result as plain data, minus ``obs`` (the ``replay.*`` namespace
    describes the machinery, not the system under measurement)."""
    data = dataclasses.asdict(result)
    data.pop("obs")
    return data


def verify_parity(
    study: AblationStudy,
    results: AblationResults,
    sample: int = 2,
) -> tuple[bool, list[tuple]]:
    """Spot-check replayed cells against full execution, bit for bit.

    Re-runs ``sample`` cells (spread across the grid: first, last, then
    evenly between) through :func:`~repro.sim.parallel.run_cell` — the full
    TPC-C execution engine, no replay — and compares every simulated metric
    of the :class:`RunResult` for exact equality.  Returns ``(parity,
    mismatched_keys)``; this is the flag ``BENCH_ablation.json`` records
    and CI gates on.
    """
    specs = study.cell_specs()
    sample = max(1, min(sample, len(specs)))
    if sample == 1:
        picks = [0]
    else:
        picks = sorted(
            {round(i * (len(specs) - 1) / (sample - 1)) for i in range(sample)}
        )
    mismatched = []
    for index in picks:
        spec = specs[index]
        full = _comparable(run_cell(spec))
        replayed = _comparable(results.cells[spec.key])
        if full != replayed:
            mismatched.append(spec.key)
    return not mismatched, mismatched
