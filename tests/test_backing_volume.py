"""PageStore semantics and the Volume timed-access wrapper."""

import pytest

from repro.db.page import PageImage
from repro.errors import OutOfRangeError, PageNotFoundError
from repro.storage.backing import MemoryPageStore
from repro.storage.device import Device, IOKind
from repro.storage.profiles import MLC_SAMSUNG_470
from repro.storage.volume import Volume


def image(tag: str) -> PageImage:
    """A one-row page image: what every page store holds."""
    return PageImage(0, 0, {0: (tag,)})


class TestPageStore:
    def test_put_get_roundtrip(self):
        store = MemoryPageStore(10)
        store.put(3, image("image-a"))
        assert store.get(3) == image("image-a")

    def test_put_replaces(self):
        store = MemoryPageStore(10)
        store.put(3, image("old"))
        store.put(3, image("new"))
        assert store.get(3) == image("new")

    def test_get_empty_slot_raises(self):
        store = MemoryPageStore(10)
        with pytest.raises(PageNotFoundError):
            store.get(0)

    def test_peek_empty_slot_returns_none(self):
        assert MemoryPageStore(10).peek(5) is None

    def test_delete_is_idempotent(self):
        store = MemoryPageStore(10)
        store.put(1, image("x"))
        store.delete(1)
        store.delete(1)
        assert 1 not in store

    def test_bounds_checked(self):
        store = MemoryPageStore(10)
        for bad in (-1, 10, 999):
            with pytest.raises(OutOfRangeError):
                store.put(bad, image("x"))
            with pytest.raises(OutOfRangeError):
                store.peek(bad)

    def test_len_contains_occupied_clear(self):
        store = MemoryPageStore(10)
        store.put(1, image("a"))
        store.put(7, image("b"))
        assert len(store) == 2
        assert set(store.occupied()) == {1, 7}
        store.clear()
        assert len(store) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(OutOfRangeError):
            MemoryPageStore(0)


class TestVolume:
    @pytest.fixture
    def vol(self) -> Volume:
        return Volume(Device(MLC_SAMSUNG_470, 100))

    def test_write_then_read_page_charges_device(self, vol):
        vol.write_page(5, image("img"))
        busy = vol.busy_time
        assert busy > 0
        assert vol.read_page(5) == image("img")
        assert vol.busy_time > busy

    def test_peek_is_untimed(self, vol):
        vol.write_page(5, image("img"))
        busy = vol.busy_time
        assert vol.peek(5) == image("img")
        assert vol.busy_time == busy

    def test_batch_roundtrip_is_single_op(self, vol):
        vol.write_batch(10, [image("a"), image("b"), image("c")])
        assert vol.device.stats.ops[IOKind.SEQ_WRITE] == 1
        assert vol.read_batch(10, 3) == [image("a"), image("b"), image("c")]
        assert vol.device.stats.ops[IOKind.SEQ_READ] == 1

    def test_batch_read_of_unwritten_slots_yields_none(self, vol):
        vol.write_page(11, image("only"))
        assert vol.read_batch(10, 3) == [None, image("only"), None]

    def test_store_cannot_exceed_device(self):
        from repro.storage.backing import MemoryPageStore

        with pytest.raises(OutOfRangeError):
            Volume(Device(MLC_SAMSUNG_470, 10), MemoryPageStore(20))

    def test_capacity_property(self, vol):
        assert vol.capacity_pages == 100
