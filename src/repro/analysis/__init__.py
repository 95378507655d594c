"""Analysis utilities: the Section 2.2 cost model, tables, and reports.

Everything that turns raw simulation output into the paper's presentation
lives here: :mod:`~repro.analysis.costmodel` implements the replacement-cost
arithmetic of Section 2.2 (and its GR/GSC refinements), ``tables`` renders
aligned text tables and series, ``report`` assembles Table 3/4/6-style
summaries from :class:`~repro.sim.runner.RunResult` and
:class:`~repro.recovery.restart.RestartReport` objects, and ``fitting``
back-solves device parameters from measured throughput.  Nothing in this
package runs a simulation; it only formats and cross-checks results.
"""

from repro.analysis.costmodel import (
    access_time,
    breakeven_exponent,
    breakeven_theta,
    hit_rate_gain,
    roi_ratio,
)
from repro.analysis.fitting import LogLinearFit, fit_log_hit_curve
from repro.analysis.report import (
    comparison_summary,
    restart_report_table,
    run_result_table,
)
from repro.analysis.tables import format_series, format_table

__all__ = [
    "access_time",
    "breakeven_exponent",
    "breakeven_theta",
    "comparison_summary",
    "format_series",
    "format_table",
    "LogLinearFit",
    "fit_log_hit_curve",
    "hit_rate_gain",
    "restart_report_table",
    "roi_ratio",
    "run_result_table",
]
