"""Analysis utilities: the Section 2.2 cost model, tables, and reports.

Everything that turns raw simulation output into the paper's presentation
lives here: :mod:`~repro.analysis.costmodel` implements the replacement-cost
arithmetic of Section 2.2 (and its GR/GSC refinements), ``tables`` renders
aligned text tables, ``report`` assembles Table 3/4/6-style
summaries from :class:`~repro.sim.runner.RunResult` and
:class:`~repro.recovery.restart.RestartReport` objects, and ``fitting``
back-solves device parameters from measured throughput.  Nothing in this
package runs a simulation; it only formats and cross-checks results.
"""
