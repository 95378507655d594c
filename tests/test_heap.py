"""Heap files: rid arithmetic, append cursor, wrap recycling."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.db.catalog import Catalog
from repro.db.heap import HeapFile
from repro.db.schema import TableSchema, int_col
from repro.errors import CatalogError


def make_heap(n_rows=20, slots=5, first_offset=0) -> HeapFile:
    cat = Catalog()
    if first_offset:
        cat.create_table(
            TableSchema("pad", (int_col("x"),), ("x",), slots_per_page=1),
            expected_rows=first_offset,
        )
    info = cat.create_table(
        TableSchema("t", (int_col("x"),), ("x",), slots_per_page=slots),
        expected_rows=n_rows,
    )
    return HeapFile(info)


def test_rid_for_rownum_dense_mapping():
    heap = make_heap(slots=5, first_offset=3)
    assert heap.rid_for_rownum(0) == (3, 0)
    assert heap.rid_for_rownum(4) == (3, 4)
    assert heap.rid_for_rownum(5) == (4, 0)
    assert heap.rid_for_rownum(12) == (5, 2)


@given(
    slots=st.integers(1, 9),
    offset=st.integers(0, 4),
    first=st.integers(0, 60),
    count=st.integers(-2, 60),
)
def test_bulk_rids_are_the_dense_mapping(slots, offset, first, count):
    heap = make_heap(n_rows=200, slots=slots, first_offset=offset)
    expected = [heap.rid_for_rownum(r) for r in range(first, first + count)]
    assert heap.rids(first, count) == expected


def test_negative_rownum_rejected():
    with pytest.raises(CatalogError):
        make_heap(slots=5).rid_for_rownum(-1)


def test_append_advances_and_counts():
    heap = make_heap(slots=5)
    rids = [heap.append_rid() for _ in range(7)]
    assert rids[0] == (0, 0)
    assert rids[6] == (1, 1)
    assert heap.info.row_count == 7
    assert not heap.wrapped


def test_append_wraps_and_recycles_oldest():
    heap = make_heap(n_rows=10, slots=5)  # capacity = 10 rows exactly
    for _ in range(10):
        heap.append_rid()
    rid = heap.append_rid()  # 11th row recycles slot 0
    assert rid == (0, 0)
    assert heap.wrapped


def test_capacity_rows():
    assert make_heap(n_rows=20, slots=5).capacity_rows == 20
