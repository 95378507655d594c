"""Markdown experiment reports.

Turns :class:`~repro.sim.runner.RunResult`,
:class:`~repro.recovery.restart.RestartReport` and
:class:`~repro.sim.service.ServiceResult` objects into the markdown blocks
the CLI emits and EXPERIMENTS.md-style records are assembled from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.recovery.restart import RestartReport
from repro.sim.runner import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.service import ServiceResult


def run_result_table(results: Iterable[RunResult], title: str = "Results") -> str:
    """Render a markdown table of steady-state runs."""
    lines = [
        f"### {title}",
        "",
        "| configuration | tpmC | DRAM hit | flash hit | write red. | "
        "flash util | disk util | bottleneck |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in results:
        bottleneck = max(r.utilization, key=r.utilization.get) if r.utilization else "-"
        lines.append(
            f"| {r.name} | {r.tpmc:,.0f} | {r.dram_hit_rate:.1%} | "
            f"{r.flash_hit_rate:.1%} | {r.write_reduction:.1%} | "
            f"{r.utilization.get('flash', 0.0):.1%} | "
            f"{r.utilization.get('disk', 0.0):.1%} | {bottleneck} |"
        )
    return "\n".join(lines)


def restart_report_table(
    reports: Iterable[tuple[str, RestartReport]], title: str = "Restart"
) -> str:
    """Render a markdown table of restart measurements."""
    lines = [
        f"### {title}",
        "",
        "| configuration | restart (s) | metadata (s) | log records | "
        "FPW installs | redo | flash reads | losers |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, r in reports:
        lines.append(
            f"| {name} | {r.total_time:.3f} | {r.metadata_restore_time:.4f} | "
            f"{r.log_records_scanned:,} | {r.fpw_installed:,} | "
            f"{r.redo_applied:,} | {r.flash_read_fraction:.1%} | {r.losers} |"
        )
    return "\n".join(lines)


def service_result_table(
    results: Iterable["ServiceResult"], title: str = "Closed-loop service"
) -> str:
    """Render a markdown table of closed-loop service runs.

    One row per cell: client count, throughput, and the latency
    percentiles in milliseconds — the columns of the paper-style
    throughput-vs-clients figure, plus the saturated resource.
    """
    lines = [
        f"### {title}",
        "",
        "| configuration | clients | tpmC | tx/s | p50 (ms) | p95 (ms) | "
        "p99 (ms) | max (ms) | bottleneck | util |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for r in results:
        util = r.utilization.get(r.bottleneck, 0.0)
        lines.append(
            f"| {r.name} | {r.n_clients} | {r.tpmc:,.0f} | {r.tps:,.0f} | "
            f"{r.p50_seconds * 1000:,.2f} | {r.p95_seconds * 1000:,.2f} | "
            f"{r.p99_seconds * 1000:,.2f} | {r.latency_max * 1000:,.2f} | "
            f"{r.bottleneck or '-'} | {util:.1%} |"
        )
    return "\n".join(lines)
