"""Stack-wide observability: metrics, traces, and span timers (`repro.obs`).

The paper's whole evaluation explains throughput through internal signals —
flash hit ratio (Table 3a), write reduction (Table 3b), device utilization
(Table 4a), page IOPS (Table 4b), recovery read sources (§4.2) — so the
simulator carries a first-class observability layer rather than scattered
ad-hoc counters.  Three primitives, one switch:

* :class:`~repro.obs.registry.MetricRegistry` — hierarchical counters,
  gauges and fixed-bucket histograms with picklable
  :class:`~repro.obs.registry.RegistrySnapshot` (diff/merge/JSON/CSV);
* :class:`~repro.obs.tracer.EventTracer` — a bounded ring buffer of
  ordered events (checkpoints, crashes, recovery phases);
* :class:`~repro.obs.scope.Scope` — a span timer driven by an explicit
  (simulated) clock.

Everything hangs off the module-level singleton :data:`OBS`, disabled by
default.  Instrumented hot paths guard with ``if OBS.enabled:`` so the
disabled cost is one attribute load and branch per event — the overhead
budget DESIGN.md §8 quantifies.  Enable programmatically::

    from repro.obs import OBS
    OBS.enable()
    ... run an experiment ...
    snap = OBS.snapshot()
    print(snap.get("buffer.pool.hit"), snap.get("wal.force.count"))

or for a whole process via the environment: ``REPRO_OBS=1``.  The CLI
surface is ``python -m repro stats FIELD=V...`` (see :mod:`repro.cli`).  A grid
collects one snapshot per cell with ``ExperimentConfig(collect_obs=True)``
(or ``CellSpec(collect_obs=True)``) through
:func:`~repro.sim.parallel.run_cells`, and :func:`merge_snapshots` sums the
cells' snapshots in grid order.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricRegistry,
    RegistrySnapshot,
    merge_snapshots,
    sanitize,
)
from repro.obs.scope import SPAN_BUCKETS, Scope
from repro.obs.tracer import EventTracer, TraceEvent

__all__ = [
    "OBS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventTracer",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricRegistry",
    "Observability",
    "RegistrySnapshot",
    "SPAN_BUCKETS",
    "Scope",
    "TraceEvent",
    "merge_snapshots",
    "sanitize",
]


class Observability(MetricRegistry):
    """A metric registry composed with an event tracer and span factory."""

    def __init__(self, name: str = "repro") -> None:
        super().__init__(name)
        self.tracer = EventTracer()

    def span(self, name: str, clock: Callable[[], float]) -> Scope:
        """A :class:`Scope` recording into ``<name>.seconds`` on exit."""
        return Scope(self, name, clock)

    def trace(self, name: str, sim_time: float = 0.0, **payload) -> None:
        """Emit one trace event (no-op while disabled)."""
        if self.enabled:
            self.tracer.emit(name, sim_time, **payload)

    def reset(self) -> None:
        super().reset()
        self.tracer.reset()


#: The process-wide observability singleton.  Disabled unless switched on
#: (or the process started with ``REPRO_OBS=1`` in the environment).
OBS = Observability("repro")

if os.environ.get("REPRO_OBS", "").strip() not in ("", "0"):
    OBS.enable()
