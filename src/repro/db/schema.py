"""Table schemas for the mini storage engine.

A :class:`TableSchema` describes column names/types, the primary-key columns,
and how many row slots fit on one 4 KB page.  ``slots_per_page`` is derived
from an estimated row width so that table *page counts* — which drive every
cache-size ratio in the paper's experiments — stay proportional to the real
TPC-C tables' on-disk footprints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CatalogError
from repro.storage.profiles import PAGE_SIZE


class ColumnType(enum.Enum):
    """Supported column types (all that TPC-C needs)."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def width(self) -> int:
        """Estimated stored width in bytes, used for rows-per-page sizing."""
        return {"int": 8, "float": 8, "str": 24}[self.value]


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and (for strings) an estimated width."""

    name: str
    ctype: ColumnType
    width: int | None = None

    @property
    def stored_width(self) -> int:
        return self.width if self.width is not None else self.ctype.width


_PAGE_OVERHEAD = 96  # header + slot directory allowance per page
_ROW_OVERHEAD = 8  # per-row slot entry allowance


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table.

    Parameters
    ----------
    name:
        Table name, unique within a catalog.
    columns:
        Ordered column definitions; rows are plain tuples in this order.
    primary_key:
        Names of the PK columns, in key order.
    slots_per_page:
        Rows per page.  If omitted it is computed from the column widths,
        which keeps relative table sizes faithful to TPC-C.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    slots_per_page: int = 0

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        missing = [k for k in self.primary_key if k not in names]
        if missing:
            raise CatalogError(
                f"primary key columns {missing} not in table {self.name!r}"
            )
        if self.slots_per_page <= 0:
            object.__setattr__(self, "slots_per_page", self._computed_slots())

    def _computed_slots(self) -> int:
        row_width = sum(c.stored_width for c in self.columns) + _ROW_OVERHEAD
        return max(1, (PAGE_SIZE - _PAGE_OVERHEAD) // row_width)

    def column_index(self, name: str) -> int:
        """Position of column ``name`` in the row tuple."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise CatalogError(f"no column {name!r} in table {self.name!r}")

    def pk_indices(self) -> tuple[int, ...]:
        """Row-tuple positions of the primary-key columns."""
        return tuple(self.column_index(k) for k in self.primary_key)

    def pk_of(self, row: tuple) -> tuple:
        """Extract the primary-key value tuple from ``row``."""
        return tuple(row[i] for i in self.pk_indices())

    def pages_for_rows(self, nrows: int) -> int:
        """Pages needed to hold ``nrows`` rows."""
        return max(1, -(-nrows // self.slots_per_page))


def int_col(name: str) -> Column:
    """Shorthand for an integer column."""
    return Column(name, ColumnType.INT)


def float_col(name: str) -> Column:
    """Shorthand for a float column."""
    return Column(name, ColumnType.FLOAT)


def str_col(name: str, width: int = 24) -> Column:
    """Shorthand for a string column with an estimated stored width."""
    return Column(name, ColumnType.STR, width=width)
