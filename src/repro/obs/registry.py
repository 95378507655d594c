"""Hierarchical metric registry: counters, gauges, fixed-bucket histograms.

The registry is the heart of the observability layer (`repro.obs`).  Design
constraints, in priority order:

1. **No-op cheap.**  Instrumented hot paths guard every observation with
   ``if OBS.enabled:`` — a single attribute load and branch when disabled —
   so the simulator's measured throughput (benchmarks/record.py) is
   unaffected unless observability is switched on.
2. **Deterministic.**  Metric values observed during a simulation are
   *simulated* quantities (service seconds, page counts), never host
   wall-clock, so a snapshot taken in a worker process is bit-identical to
   one taken in a serial run of the same cell — the same guarantee the
   parallel sweep engine makes for :class:`~repro.sim.runner.RunResult`.
3. **Picklable snapshots.**  :meth:`MetricRegistry.snapshot` returns a
   :class:`RegistrySnapshot` of plain dicts/tuples that crosses the
   ``ProcessPoolExecutor`` boundary unchanged and supports ``diff`` (what
   happened between two points) and ``merge`` (aggregate a sweep's cells in
   grid order).

Metric names are dotted paths (``storage.ssd.<profile>.read.seconds``);
:meth:`MetricRegistry.counter` / :meth:`gauge` / :meth:`histogram` are
get-or-create, so any component may cache a handle at construction time and
the handle stays valid across :meth:`MetricRegistry.reset` (values are
zeroed, objects are kept).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.errors import ConfigError

#: Default latency buckets (seconds): log-ish spacing from 10 us to 1 s,
#: spanning flash random reads (~55 us) through QD1 disk seeks (~5 ms) to
#: batched sequential transfers.  The last bucket is unbounded.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 1.0,
)

_NAME_RE = re.compile(r"[^a-z0-9_.]+")


def sanitize(part: str) -> str:
    """Normalise one metric-name component: lower-case, ``[a-z0-9_.]`` only.

    >>> sanitize("FaCE+GSC")
    'face_gsc'
    >>> sanitize("MLC SSD (Samsung 470 256GB)")
    'mlc_ssd_samsung_470_256gb'
    """
    return _NAME_RE.sub("_", part.strip().lower()).strip("_")


class Counter:
    """Monotonically increasing count (events, pages, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """Point-in-time value (dirty fraction, batch size, write spread)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket distribution, cumulative-bucket (``le``) semantics.

    ``bounds`` are upper edges; an observation lands in the first bucket
    whose bound is >= the value, or in the implicit overflow bucket.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ConfigError(f"histogram {name!r} needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, picklable view of one histogram."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: float
    count: int

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it.

        The quantile is read at rank ``max(1, q * count)`` — the rank floor
        makes ``quantile(0.0)`` the first *non-empty* bucket's bound (the
        minimum observation, to bucket resolution) rather than the lowest
        configured bound regardless of data.  Returns ``inf`` when the
        quantile falls in the overflow bucket and 0.0 on an empty
        histogram.  Exact to one bucket width; merged snapshots (e.g. a
        sweep's cells folded with :meth:`merge`) answer quantiles over the
        combined population, which mid-point or interpolating estimators
        cannot do without the raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1.0, q * self.count)
        seen = 0
        for bound, n in zip(self.bounds, self.counts):
            seen += n
            if seen >= rank:
                return bound
        return float("inf")

    def diff(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        if earlier.bounds != self.bounds:
            raise ConfigError("cannot diff histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a - b for a, b in zip(self.counts, earlier.counts)),
            total=self.total - earlier.total,
            count=self.count - earlier.count,
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if other.bounds != self.bounds:
            raise ConfigError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
        )


@dataclass(frozen=True)
class RegistrySnapshot:
    """Point-in-time copy of every metric — plain data, picklable.

    ``diff`` subtracts counters and histograms (gauges keep the *newer*
    value); ``merge`` sums counters and histograms across snapshots (gauges
    keep the *last* value, i.e. grid order decides).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def diff(self, earlier: "RegistrySnapshot") -> "RegistrySnapshot":
        """What happened between ``earlier`` and this snapshot."""
        counters = {
            name: value - earlier.counters.get(name, 0.0)
            for name, value in self.counters.items()
        }
        histograms = {}
        for name, hist in self.histograms.items():
            old = earlier.histograms.get(name)
            histograms[name] = hist.diff(old) if old is not None else hist
        return RegistrySnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Aggregate two snapshots (e.g. two sweep cells)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = mine.merge(hist) if mine is not None else hist
        return RegistrySnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def as_flat(self) -> dict[str, float]:
        """Flatten to ``{dotted-name: value}`` for tables and CSV.

        Histograms expand to ``<name>.count``, ``<name>.sum`` and
        ``<name>.mean``; bucket detail stays on the snapshot object.
        """
        out: dict[str, float] = dict(self.counters)
        out.update(self.gauges)
        for name, hist in self.histograms.items():
            out[f"{name}.count"] = float(hist.count)
            out[f"{name}.sum"] = hist.total
            out[f"{name}.mean"] = hist.mean
        return out

    def get(self, name: str, default: float = 0.0) -> float:
        """One metric by flat name (counter, gauge, or histogram facet)."""
        return self.as_flat().get(name, default)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in self.histograms.items()
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_csv(self, path_or_file: str | IO[str]) -> int:
        """Write ``metric,value`` rows (flat form, sorted); returns rows."""
        flat = self.as_flat()
        own = isinstance(path_or_file, str)
        handle = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            handle.write("metric,value\n")
            for name in sorted(flat):
                handle.write(f"{name},{flat[name]!r}\n")
        finally:
            if own:
                handle.close()
        return len(flat)


def merge_snapshots(snapshots: Iterable[RegistrySnapshot]) -> RegistrySnapshot:
    """Fold snapshots left-to-right (pass sweep cells in grid order)."""
    merged = RegistrySnapshot()
    for snap in snapshots:
        if snap is not None:
            merged = merged.merge(snap)
    return merged


class MetricRegistry:
    """Get-or-create home for all metrics, with a single enable switch.

    ``registry.enabled`` is a plain attribute so the hot-path guard
    ``if OBS.enabled:`` costs one attribute load.  Metric handles returned
    by :meth:`counter` / :meth:`gauge` / :meth:`histogram` remain valid
    across :meth:`reset` (which zeroes values but keeps objects); only
    :meth:`clear` discards them, so long-lived components must re-acquire
    handles after a ``clear`` (tests only).
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.enabled = False
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- switch ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- get-or-create -------------------------------------------------------

    def _get(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, bounds=bounds)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every metric, keeping registrations (handles stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Forget every metric entirely (tests; invalidates cached handles)."""
        self._metrics.clear()

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramSnapshot] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = HistogramSnapshot(
                    bounds=metric.bounds,
                    counts=tuple(metric.counts),
                    total=metric.total,
                    count=metric.count,
                )
        return RegistrySnapshot(counters=counters, gauges=gauges, histograms=histograms)
