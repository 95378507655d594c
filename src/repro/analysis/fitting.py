"""Fitting the hit-rate model of Section 2.2.

The paper's cost-effectiveness analysis rests on Tsuei et al.'s empirical
law: the data hit rate is linear in ``log(cache size)`` over the operating
range.  This module fits that model to measured (size, hit-rate) points —
least squares on ``h = alpha * ln(size) + beta`` — and reports the fit
quality, so the simulator can *validate* the premise instead of assuming
it (the ``paper`` pass of ``benchmarks/record.py`` fits Table 3's sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class LogLinearFit:
    """``hit_rate = alpha * ln(size) + beta`` with goodness-of-fit."""

    alpha: float
    beta: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    def predict(self, size: float) -> float:
        """Model hit rate at ``size`` (clamped to [0, 1])."""
        if size <= 0:
            raise ConfigError("size must be positive")
        return min(1.0, max(0.0, self.alpha * math.log(size) + self.beta))


def fit_log_hit_curve(points: Sequence[tuple[float, float]]) -> LogLinearFit:
    """Least-squares fit of hit rate against ln(cache size).

    ``points`` are ``(cache_size, hit_rate)`` pairs; at least three distinct
    sizes are required for a meaningful fit.
    """
    if len(points) < 3:
        raise ConfigError("need at least 3 points to fit the log-linear law")
    if any(size <= 0 for size, _ in points):
        raise ConfigError("cache sizes must be positive")
    xs = [math.log(size) for size, _ in points]
    ys = [hit for _, hit in points]
    if len(set(xs)) < 2:
        raise ConfigError("need at least two distinct cache sizes")
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    alpha = sxy / sxx
    beta = mean_y - alpha * mean_x
    ss_res = sum((y - (alpha * x + beta)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LogLinearFit(
        alpha=alpha, beta=beta, r_squared=r_squared, points=tuple(points)
    )
