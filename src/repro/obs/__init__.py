"""Stack-wide observability: metrics and span timers (`repro.obs`).

The paper's whole evaluation explains throughput through internal signals —
flash hit ratio (Table 3a), write reduction (Table 3b), device utilization
(Table 4a), page IOPS (Table 4b), recovery read sources (§4.2) — so the
simulator carries a first-class observability layer rather than scattered
ad-hoc counters.  Two primitives, one switch:

* :class:`~repro.obs.registry.MetricRegistry` — hierarchical counters,
  gauges and fixed-bucket histograms with picklable
  :class:`~repro.obs.registry.RegistrySnapshot` (JSON/CSV);
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

The CLI surface is ``python -m repro stats FIELD=V...`` (see
:mod:`repro.cli`).  A grid collects one snapshot per cell with
``ExperimentConfig(collect_obs=True)`` (or ``CellSpec(collect_obs=True)``)
through :func:`~repro.sim.parallel.run_cells`.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricRegistry,
    RegistrySnapshot,
    sanitize,
)
from repro.obs.scope import SPAN_BUCKETS, Scope

__all__ = [
    "OBS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricRegistry",
    "Observability",
    "RegistrySnapshot",
    "SPAN_BUCKETS",
    "Scope",
    "sanitize",
]


class Observability(MetricRegistry):
    """A metric registry with a span factory."""

    def span(self, name: str, clock: Callable[[], float]) -> Scope:
        """A :class:`Scope` recording into ``<name>.seconds`` on exit."""
        return Scope(self, name, clock)


#: The process-wide observability singleton, disabled until switched on.
OBS = Observability("repro")
