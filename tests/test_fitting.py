"""Log-linear hit-curve fitting (repro.analysis.fitting)."""

import math

import pytest

from repro.analysis.fitting import LogLinearFit, fit_log_hit_curve
from repro.errors import ConfigError


def synthetic_points(alpha=0.1, beta=-0.2, sizes=(100, 200, 400, 800, 1600)):
    return [(s, alpha * math.log(s) + beta) for s in sizes]


def test_exact_data_recovers_parameters():
    fit = fit_log_hit_curve(synthetic_points(alpha=0.08, beta=-0.1))
    assert fit.alpha == pytest.approx(0.08, rel=1e-9)
    assert fit.beta == pytest.approx(-0.1, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0)


def test_noisy_data_fits_approximately():
    points = [(s, h + ((-1) ** i) * 0.01) for i, (s, h) in
              enumerate(synthetic_points())]
    fit = fit_log_hit_curve(points)
    assert fit.alpha == pytest.approx(0.1, abs=0.02)
    assert 0.9 < fit.r_squared <= 1.0


def test_predict_clamps_to_unit_interval():
    fit = LogLinearFit(alpha=0.5, beta=0.0, r_squared=1.0, points=())
    assert fit.predict(1) == 0.0  # ln(1) = 0
    assert fit.predict(10**9) == 1.0  # clamped


def test_predict_rejects_nonpositive_size():
    fit = LogLinearFit(alpha=0.1, beta=0.0, r_squared=1.0, points=())
    with pytest.raises(ConfigError):
        fit.predict(0)


def test_validation():
    with pytest.raises(ConfigError):
        fit_log_hit_curve([(100, 0.5), (200, 0.6)])  # too few
    with pytest.raises(ConfigError):
        fit_log_hit_curve([(0, 0.1), (100, 0.5), (200, 0.6)])  # bad size
    with pytest.raises(ConfigError):
        fit_log_hit_curve([(100, 0.1), (100, 0.5), (100, 0.6)])  # one size
