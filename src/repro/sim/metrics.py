"""Measurement helpers: windowed throughput series (paper Figure 6).

:class:`ThroughputSeries` accumulates cumulative ``(simulated seconds,
New-Order commits)`` samples during a measured run and converts them into
per-window tpmC — the time-varying throughput the paper plots in Figure 6
to show checkpoint dips.  Samples are validated to be non-decreasing in
both coordinates so a mixed-up or un-reset series fails loudly instead of
yielding negative rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class ThroughputSample:
    """One (simulated time, cumulative New-Order commits) observation."""

    wall_seconds: float
    neworder_commits: int


@dataclass
class ThroughputSeries:
    """Time-varying tpmC, as plotted in the paper's Figure 6.

    Samples are cumulative observations; :meth:`windowed_tpmc` turns them
    into per-window New-Order commit rates.
    """

    samples: list[ThroughputSample] = field(default_factory=list)

    def record(self, wall_seconds: float, neworder_commits: int) -> None:
        """Append one cumulative observation.

        Samples must be non-decreasing in both time and commits — simulated
        clocks never run backwards, and a violation means the caller mixed
        up series or forgot a reset, so it fails loudly here rather than
        producing negative windowed rates downstream.
        """
        if self.samples:
            last = self.samples[-1]
            if wall_seconds < last.wall_seconds:
                raise ConfigError(
                    f"throughput sample at {wall_seconds}s is earlier than "
                    f"the previous sample at {last.wall_seconds}s"
                )
            if neworder_commits < last.neworder_commits:
                raise ConfigError(
                    f"cumulative commits decreased ({last.neworder_commits} "
                    f"-> {neworder_commits}); samples must be cumulative"
                )
        self.samples.append(ThroughputSample(wall_seconds, neworder_commits))

    def windowed_tpmc(self, window_seconds: float) -> list[tuple[float, float]]:
        """Return ``(window end time, tpmC within that window)`` pairs."""
        if window_seconds <= 0 or not self.samples:
            return []
        out: list[tuple[float, float]] = []
        boundary = window_seconds
        commits_at_boundary = 0
        last_commits = 0
        for sample in self.samples:
            while sample.wall_seconds > boundary:
                delta = last_commits - commits_at_boundary
                out.append((boundary, delta * 60.0 / window_seconds))
                commits_at_boundary = last_commits
                boundary += window_seconds
            last_commits = sample.neworder_commits
        if last_commits > commits_at_boundary:
            out.append(
                (boundary, (last_commits - commits_at_boundary) * 60.0 / window_seconds)
            )
        return out
