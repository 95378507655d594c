"""Catalog: table → page-range mapping and page-id allocation.

Page ids are the database's logical block addresses on the disk volume, so a
table is simply a contiguous range of LBAs.  The catalog allocates those
ranges at load time (the reproduction, like the paper's fixed 50 GB TPC-C
database, sizes files up front with growth headroom).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.schema import TableSchema
from repro.errors import CatalogError


@dataclass
class TableInfo:
    """Placement record for one table."""

    schema: TableSchema
    first_page: int
    n_pages: int
    row_count: int = 0

    @property
    def end_page(self) -> int:
        """One past the last page id of the table's range."""
        return self.first_page + self.n_pages


@dataclass
class IndexInfo:
    """Placement record for one (hash) index."""

    name: str
    table: str
    first_page: int
    n_pages: int


@dataclass
class Catalog:
    """Allocates page ranges and registers tables and indexes.

    The catalog itself is metadata that a real system keeps in well-known
    pages; here it is rebuilt deterministically by the loader, so the crash
    model does not need to persist it (the loader's allocation order is a
    pure function of the scale profile).
    """

    tables: dict[str, TableInfo] = field(default_factory=dict)
    indexes: dict[str, IndexInfo] = field(default_factory=dict)
    next_page: int = 0

    def create_table(
        self, schema: TableSchema, expected_rows: int, growth_factor: float = 1.0
    ) -> TableInfo:
        """Register ``schema`` with room for ``expected_rows * growth_factor``."""
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        n_pages = schema.pages_for_rows(max(1, int(expected_rows * growth_factor)))
        info = TableInfo(schema=schema, first_page=self.next_page, n_pages=n_pages)
        self.next_page += n_pages
        self.tables[schema.name] = info
        return info

    def create_index(self, name: str, table: str, n_pages: int) -> IndexInfo:
        """Allocate ``n_pages`` bucket pages for a hash index on ``table``."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        if table not in self.tables:
            raise CatalogError(f"index {name!r} references unknown table {table!r}")
        if n_pages < 1:
            raise CatalogError(f"index {name!r} needs at least one page")
        info = IndexInfo(
            name=name, table=table, first_page=self.next_page, n_pages=n_pages
        )
        self.next_page += n_pages
        self.indexes[name] = info
        return info

    @property
    def total_pages(self) -> int:
        """Database footprint in pages (tables + indexes)."""
        return self.next_page
