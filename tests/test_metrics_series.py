"""Edge cases of :class:`ThroughputSeries` (ISSUE: windowed_tpmc hardening).

The series feeds Figure 6 plots; these tests pin the empty-series and
partial-final-window behaviours and the non-monotonic sample guard.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sim.metrics import ThroughputSeries


def test_empty_series_yields_no_windows():
    series = ThroughputSeries()
    assert series.windowed_tpmc(10.0) == []
    assert series.samples == []


def test_nonpositive_window_yields_no_windows():
    series = ThroughputSeries()
    series.record(1.0, 10)
    assert series.windowed_tpmc(0.0) == []
    assert series.windowed_tpmc(-5.0) == []


def test_single_sample_lands_in_partial_final_window():
    series = ThroughputSeries()
    series.record(3.0, 30)
    # One 10s window, closed early: rate is still commits * 60 / window.
    assert series.windowed_tpmc(10.0) == [(10.0, 30 * 60.0 / 10.0)]


def test_partial_final_window_after_full_windows():
    series = ThroughputSeries()
    series.record(10.0, 100)
    series.record(20.0, 180)
    series.record(25.0, 200)  # 5s into the third window
    windows = series.windowed_tpmc(10.0)
    assert [w for w, _ in windows] == [10.0, 20.0, 30.0]
    assert windows[0][1] == pytest.approx(100 * 6.0)
    assert windows[1][1] == pytest.approx(80 * 6.0)
    # The tail window reports the commits it saw at the full-window rate.
    assert windows[2][1] == pytest.approx(20 * 6.0)


def test_no_trailing_window_when_no_new_commits():
    series = ThroughputSeries()
    series.record(10.0, 100)
    series.record(12.0, 100)  # time advances, commits do not
    windows = series.windowed_tpmc(10.0)
    assert windows == [(10.0, 100 * 6.0)]


def test_record_rejects_time_going_backwards():
    series = ThroughputSeries()
    series.record(5.0, 10)
    with pytest.raises(ConfigError, match="earlier"):
        series.record(4.0, 20)


def test_record_rejects_decreasing_commits():
    series = ThroughputSeries()
    series.record(5.0, 10)
    with pytest.raises(ConfigError, match="cumulative"):
        series.record(6.0, 9)


def test_record_accepts_equal_timestamps_and_counts():
    series = ThroughputSeries()
    series.record(5.0, 10)
    series.record(5.0, 10)  # idempotent duplicate sample is fine
    assert [s.neworder_commits for s in series.samples] == [10, 10]
