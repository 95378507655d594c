"""Table schemas and the catalog's page-range allocation."""

import pytest

from repro.db.catalog import Catalog
from repro.db.schema import TableSchema, int_col, str_col
from repro.errors import CatalogError
from repro.tpcc import schema as tpcc_schema


def simple_schema(name="t", slots=0):
    return TableSchema(
        name=name,
        columns=(int_col("id"), str_col("val", 16)),
        primary_key=("id",),
        slots_per_page=slots,
    )


class TestSchema:
    def test_slots_per_page_derived_from_widths(self):
        s = simple_schema()
        assert s.slots_per_page == (4096 - 96) // (8 + 16 + 8)

    def test_explicit_slots_override(self):
        assert simple_schema(slots=7).slots_per_page == 7

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("bad", (int_col("a"), int_col("a")), primary_key=("a",))

    def test_pk_must_reference_columns(self):
        with pytest.raises(CatalogError):
            TableSchema("bad", (int_col("a"),), primary_key=("zzz",))

    def test_column_index_and_missing(self):
        s = simple_schema()
        assert s.column_index("val") == 1
        with pytest.raises(CatalogError):
            s.column_index("nope")

    def test_pages_for_rows_rounds_up(self):
        s = simple_schema(slots=10)
        assert s.pages_for_rows(1) == 1
        assert s.pages_for_rows(10) == 1
        assert s.pages_for_rows(11) == 2
        assert s.pages_for_rows(0) == 1

    def test_tpcc_relative_footprints(self):
        """STOCK and CUSTOMER rows are wide; NEW_ORDER rows are tiny —
        their rows-per-page must reflect that (keeps DB proportions)."""
        assert tpcc_schema.NEW_ORDER.slots_per_page > 5 * tpcc_schema.STOCK.slots_per_page
        assert tpcc_schema.CUSTOMER.slots_per_page < tpcc_schema.ORDER.slots_per_page


class TestCatalog:
    def test_contiguous_disjoint_allocation(self):
        cat = Catalog()
        a = cat.create_table(simple_schema("a", slots=10), expected_rows=25)
        b = cat.create_table(simple_schema("b", slots=10), expected_rows=5)
        assert a.first_page == 0
        assert a.n_pages == 3
        assert b.first_page == 3
        assert cat.total_pages == 4

    def test_growth_factor_reserves_headroom(self):
        cat = Catalog()
        info = cat.create_table(simple_schema(slots=10), 10, growth_factor=3.0)
        assert info.n_pages == 3

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.create_table(simple_schema("t"), 1)
        with pytest.raises(CatalogError):
            cat.create_table(simple_schema("t"), 1)

    def test_index_allocation_and_validation(self):
        cat = Catalog()
        cat.create_table(simple_schema("t"), 100)
        idx = cat.create_index("t_pk", "t", n_pages=4)
        assert idx.n_pages == 4
        assert idx.first_page == cat.tables["t"].end_page
        with pytest.raises(CatalogError):
            cat.create_index("t_pk", "t", 4)  # duplicate
        with pytest.raises(CatalogError):
            cat.create_index("x", "missing", 4)  # unknown table
        with pytest.raises(CatalogError):
            cat.create_index("y", "t", 0)  # empty

