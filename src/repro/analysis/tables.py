"""Paper-style table formatting for the benchmark harness.

Each benchmark prints the rows the paper reports; these helpers keep
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

