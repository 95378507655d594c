"""Paper-style table and series formatting for the benchmark harness.

Each benchmark prints the rows/series the paper reports; these helpers keep
the output format consistent (fixed-width columns, one header line) so the
bench logs read like the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    width: int = 12,
) -> str:
    """Render a fixed-width text table."""
    lines = [title]
    lines.append(" | ".join(f"{h:>{width}}" for h in header))
    lines.append("-+-".join("-" * width for _ in header))
    for row in rows:
        lines.append(" | ".join(f"{_cell(v):>{width}}" for v in row))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_series(
    title: str, x_label: str, y_label: str, points: Sequence[tuple[float, float]]
) -> str:
    """Render a figure's (x, y) series as two columns."""
    return format_table(title, [x_label, y_label], [(x, y) for x, y in points])
