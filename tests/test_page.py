"""Page representation: slot ops, LSN stamping, snapshots, serde."""

import pytest

from repro.db.page import Page, PageImage
from repro.errors import StorageError


def test_put_get_delete_with_lsn_stamps():
    page = Page(7)
    page.put(0, (1, "a"), lsn=5)
    assert page.get(0) == (1, "a")
    assert page.lsn == 5
    page.delete(0, lsn=9)
    assert page.get(0) is None
    assert page.lsn == 9


def test_delete_missing_slot_is_idempotent():
    page = Page(7)
    page.delete(3, lsn=2)
    assert page.lsn == 2


def test_image_is_a_frozen_snapshot():
    page = Page(1)
    page.put(0, ("before",), lsn=1)
    image = page.to_image()
    page.put(0, ("after",), lsn=2)
    assert image.slots[0] == ("before",)
    assert image.lsn == 1


def test_image_thaw_is_independent_copy():
    image = PageImage(3, 10, {0: ("x",)})
    a = image.to_page()
    b = image.to_page()
    a.put(0, ("changed",), lsn=11)
    assert b.get(0) == ("x",)
    assert image.slots[0] == ("x",)


def test_tuple_slot_keys_for_index_pages():
    page = Page(2)
    page.put((1, 5, "BAROUGHT"), (100, 3), lsn=1)
    assert page.get((1, 5, "BAROUGHT")) == (100, 3)


class TestSerde:
    def test_roundtrip_mixed_types(self):
        page = Page(42, lsn=77)
        page.slots = {
            0: (1, 2.5, "text", None),
            5: (-(2**40), -0.0, "unicode-é中", None),
        }
        restored = Page.from_bytes(page.to_bytes())
        assert restored.page_id == 42
        assert restored.lsn == 77
        assert restored.slots == page.slots

    def test_roundtrip_tuple_keys(self):
        page = Page(1, lsn=3)
        page.slots = {(1, 2, "NAME"): (10, 4), (1, 3, ""): (11, 5)}
        restored = Page.from_bytes(page.to_bytes())
        assert restored.slots == page.slots

    def test_roundtrip_empty_page(self):
        restored = Page.from_bytes(Page(9, lsn=1).to_bytes())
        assert restored.page_id == 9
        assert restored.slots == {}

    def test_bool_degrades_to_int(self):
        page = Page(1)
        page.slots = {0: (True, False)}
        restored = Page.from_bytes(page.to_bytes())
        assert restored.slots[0] == (1, 0)

    def test_bad_magic_rejected(self):
        data = bytearray(Page(1).to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(StorageError):
            Page.from_bytes(bytes(data))

    def test_truncated_header_rejected(self):
        with pytest.raises(StorageError):
            Page.from_bytes(b"\x01\x02")

    def test_unsupported_value_type_rejected(self):
        page = Page(1)
        page.slots = {0: ([1, 2],)}
        with pytest.raises(StorageError):
            page.to_bytes()

    def test_nested_tuples_rejected(self):
        # One columnar run per page: a tuple inside a row has no column kind.
        page = Page(1)
        page.slots = {0: ((1, (2, "x")), "y")}
        with pytest.raises(StorageError, match="not one columnar shape"):
            page.to_bytes()
