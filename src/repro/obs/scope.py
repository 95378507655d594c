"""`Scope`: a span timer for phases measured on an explicit clock.

A scope brackets a phase (recovery's analysis/redo/undo, a checkpoint, a
warm-up) and, on exit, records the elapsed time into a histogram named
``<name>.seconds``.  The clock is a callable returning seconds;
simulation code passes a *simulated* clock
(e.g. the recovery manager's serial-elapsed accumulator) so span durations
are deterministic, while interactive/user code may pass
``time.perf_counter`` for host timings.

Scopes follow the registry switch: entering a scope while the registry is
disabled records nothing and costs two branches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.registry import MetricRegistry

#: Span histograms hold simulated phase durations: microseconds to minutes.
SPAN_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0,
)


class Scope:
    """Context manager timing one named phase on a caller-supplied clock."""

    __slots__ = ("registry", "name", "clock", "_start", "_active")

    def __init__(
        self,
        registry: "MetricRegistry",
        name: str,
        clock: Callable[[], float],
    ) -> None:
        self.registry = registry
        self.name = name
        self.clock = clock
        self._start = 0.0
        self._active = False

    def __enter__(self) -> "Scope":
        if self.registry.enabled:
            self._active = True
            self._start = self.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._active:
            return
        self._active = False
        elapsed = self.clock() - self._start
        self.registry.histogram(f"{self.name}.seconds", bounds=SPAN_BUCKETS).observe(
            elapsed
        )
