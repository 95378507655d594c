"""The page codec: run-columnar layout, fail-closed decode, bytes that travel.

Four contracts of ``repro.db.page``'s on-media format (DESIGN.md §14):

* every page round-trips exactly, whatever mix of shapes it holds, and an
  image decoded from bytes hands those very bytes back;
* a damaged blob is a :class:`~repro.errors.StorageError`, never a raw
  ``struct.error`` / ``IndexError`` and never a silently short value;
* a page nobody modified is never re-encoded on its way DRAM → flash →
  disk (counted, in the style of ``test_miss_path_budget.py``);
* the carried bytes die with the cached image on the first mutation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import page as page_module
from repro.db.page import Page, PageImage
from repro.errors import StorageError
from repro.flashcache.metadata import CacheSlotImage
from repro.storage import MmapPageStore, make_page_store

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SCALARS = {
    "int": INT64,
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False) | st.sampled_from([-0.0, float("inf")]),
    "none": st.none(),
    "str": st.text(max_size=12) | st.sampled_from(["", "é中", "payload-7"]),
}
NESTED = st.recursive(
    st.one_of(*SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
KEY_PART = {"int": INT64, "str": st.text(max_size=6)}


@st.composite
def uniform_segment(draw):
    """Slots of one shape: what becomes a columnar run."""
    key_shape = draw(st.lists(st.sampled_from(sorted(KEY_PART)), min_size=1, max_size=3))
    scalar_key = len(key_shape) == 1 and draw(st.booleans())
    row_shape = draw(st.lists(st.sampled_from(sorted(SCALARS)), max_size=4))
    slots = []
    for _ in range(draw(st.integers(1, 6))):
        key = tuple(draw(KEY_PART[kind]) for kind in key_shape)
        row = tuple(draw(SCALARS[kind]) for kind in row_shape)
        slots.append((key[0] if scalar_key else key, row))
    return slots


#: Irregular slots — nested tuples, ragged widths — that ride the tagged run.
IRREGULAR_SEGMENT = st.lists(
    st.tuples(
        INT64 | st.text(max_size=6) | st.lists(INT64, max_size=3).map(tuple),
        st.lists(NESTED, max_size=4).map(tuple),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def pages(draw):
    """A page whose shape changes mid-page (or an empty one)."""
    segments = draw(st.lists(uniform_segment() | IRREGULAR_SEGMENT, max_size=4))
    slots = {key: row for segment in segments for key, row in segment}
    return Page(draw(INT64), lsn=draw(INT64), slots=slots)


def degrade(value):
    """What a stored value decodes to: booleans come back as 0/1."""
    if type(value) is tuple:
        return tuple(map(degrade, value))
    return int(value) if type(value) is bool else value


def exact(slots) -> list:
    """Slots with types and float signs made visible (``-0.0 == 0.0``)."""
    return [(repr(key), repr(degrade(row))) for key, row in slots.items()]


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(pages())
    def test_any_mix_of_shapes_round_trips(self, page):
        blob = page.to_bytes()
        image = PageImage.from_bytes(blob)
        assert (image.page_id, image.lsn) == (page.page_id, page.lsn)
        assert image.slots == page.slots
        assert list(image.slots) == list(page.slots)  # insertion order
        assert exact(image.slots) == exact(page.slots)
        assert page.to_image().to_bytes() == blob  # Page and PageImage agree
        assert image.to_bytes() is blob  # the bytes travel with the image
        assert image.to_page().to_bytes() is blob
        assert Page.from_bytes(blob).to_image().to_bytes() is blob
        # The encoding is canonical: decoding and re-encoding reproduces it.
        assert page_module._pack_page(image.page_id, image.lsn, image.slots) == blob

    def test_nested_rows_inside_a_uniform_page_keep_their_neighbours_columnar(self):
        slots = {i: (i, f"row-{i}") for i in range(40)}
        slots["e"] = (((1, 2), (3, 4)),)
        slots.update({100 + i: (i, f"row-{i}") for i in range(40)})
        blob = Page(1, lsn=2, slots=slots).to_bytes()
        kinds = [kind for kind, *_ in run_headers(blob)]
        assert kinds == [
            page_module._RUN_COLUMNS, page_module._RUN_TAGGED, page_module._RUN_COLUMNS
        ]
        assert PageImage.from_bytes(blob).slots == slots

    def test_int_outside_int64_is_a_storage_error(self):
        for slots in ({0: (2**63,)}, {2**70: (1,)}, {0: ((2**63,),)}):
            with pytest.raises(StorageError):
                Page(1, slots=slots).to_bytes()

    def test_columnar_pages_are_smaller_than_the_tagged_layout(self):
        bucket = bucket_page()
        tagged = page_module._pack_tagged(list(bucket.slots), list(bucket.slots.values()))
        assert len(bucket.to_bytes()) < 0.8 * len(tagged)


# -- damaged input ------------------------------------------------------------


def bucket_page() -> Page:
    """A hash-index bucket: 1-tuple keys -> (page, slot) rids."""
    return Page(9, lsn=77, slots={(k * 37,): (1000 + k // 27, k % 27) for k in range(120)})


def heap_page() -> Page:
    return Page(10, lsn=78, slots={i: (i, f"payload-é{i}", 0, None, 2.5) for i in range(27)})


def btree_node() -> Page:
    """A B+-tree node: a header slot plus one slot of nested entries."""
    entries = tuple(((1, d, o), (100 + o, o % 20)) for d in (1, 2) for o in range(12))
    return Page(11, lsn=79, slots={"h": (1, 0, -1), "e": entries})


SAMPLES = {"bucket": bucket_page, "heap": heap_page, "btree": btree_node}


def run_headers(blob: bytes) -> list[tuple[int, int, int]]:
    """``(kind, start, end)`` of every run header (signature included)."""
    found = []
    offset = page_module._HEADER.size
    while offset < len(blob):
        kind, count, signature_len, payload_len = page_module._RUN.unpack_from(blob, offset)
        end = offset + page_module._RUN.size + signature_len
        found.append((kind, offset, end))
        offset = end + payload_len
        if kind == page_module._RUN_COLUMNS:
            offset += page_module._column_block(blob[end - signature_len : end], count).size
    assert offset == len(blob)
    return found


@pytest.mark.parametrize("sample", sorted(SAMPLES))
class TestFailClosed:
    def test_truncation_at_every_byte_is_a_storage_error(self, sample):
        blob = SAMPLES[sample]().to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                PageImage.from_bytes(blob[:cut])

    def test_trailing_junk_is_a_storage_error(self, sample):
        blob = SAMPLES[sample]().to_bytes()
        for junk in (b"\x00", b"\x01", b"junk" * 5):
            with pytest.raises(StorageError):
                PageImage.from_bytes(blob + junk)

    def test_any_byte_overwritten_in_a_run_header_never_escapes(self, sample):
        """Every value at every run-header offset: ``StorageError`` or a page.

        The format carries no checksum (the stores' durability model is
        process death, not media corruption), so a flipped byte *may* decode
        — a ``q`` column read as ``d``, say — and a flipped payload byte
        usually will.  What must never happen is any other exception type,
        or a hang on an absurd slot count.
        """
        page = SAMPLES[sample]()
        blob = page.to_bytes()
        headers = run_headers(blob)
        assert headers
        decoded = offsets = 0
        for _, start, end in headers:
            offsets += end - start
            for offset in range(start, end):
                for value in range(256):
                    damaged = blob[:offset] + bytes([value]) + blob[offset + 1 :]
                    try:
                        image = PageImage.from_bytes(damaged)
                    except StorageError:
                        continue
                    decoded += 1
                    assert len(image.slots) == len(page.slots)
        assert decoded >= offsets  # at least the unchanged byte at each offset


def test_truncated_string_value_is_not_returned_short():
    blob = Page(1, slots={"e": (("a long enough string",),)}).to_bytes()
    assert page_module._RUN_TAGGED in [kind for kind, *_ in run_headers(blob)]
    with pytest.raises(StorageError):
        PageImage.from_bytes(blob[:-1])


def test_stored_values_reject_trailing_bytes_and_truncation():
    from repro.storage import decode_storable, encode_storable

    blob = encode_storable(("sentinel", 7))
    assert decode_storable(blob) == ("sentinel", 7)
    for damaged in (blob + b"\x00", blob[:-1], blob[:2]):
        with pytest.raises(StorageError):
            decode_storable(damaged)
    with pytest.raises(StorageError):
        encode_storable(2**64)


# -- the re-encode budget -----------------------------------------------------


def count_body_encodes(monkeypatch, update_fraction: float) -> tuple[int, int]:
    """Run a TINY ycsb cell on ``mmap``; ``(page-body encodes, puts of a
    page)`` after the cell's store was populated."""
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.parallel import CellSpec, run_cells
    from repro.tpcc.scale import TINY

    counts = {"encodes": 0, "puts": 0, "installing": False}
    pack_page, put = page_module._pack_page, MmapPageStore.put
    install = MmapPageStore._install_slots

    def counted_pack(*args):
        counts["encodes"] += not counts["installing"]
        return pack_page(*args)

    def counted_put(self, lba, image):
        # Page-carrying puts only: metadata segments have no page body.
        counts["puts"] += not counts["installing"] and isinstance(
            image, (PageImage, CacheSlotImage)
        )
        return put(self, lba, image)

    def flagged_install(self, slots):
        counts["installing"] = True
        try:
            return install(self, slots)
        finally:
            counts["installing"] = False

    monkeypatch.setattr(page_module, "_pack_page", counted_pack)
    monkeypatch.setattr(MmapPageStore, "put", counted_put)
    monkeypatch.setattr(MmapPageStore, "_install_slots", flagged_install)
    config = ExperimentConfig(
        scale=TINY,
        seed=5,
        workload="ycsb",
        workload_knobs={"n_keys": 5_000, "update_fraction": update_fraction},
        measure_transactions=60,
        warmup_min=30,
        warmup_max=30,
        page_store="mmap",
    )
    spec = CellSpec.from_config(("cell",), config, replay_ok=False)
    result = run_cells([spec], jobs=1, fast=True)[("cell",)]
    assert result.transactions > 0
    return counts["encodes"], counts["puts"]


def test_a_read_only_cell_never_encodes_a_page_body(monkeypatch):
    encodes, puts = count_body_encodes(monkeypatch, update_fraction=0.0)
    assert puts > 100  # clean pages were admitted to flash: the run proves something
    assert encodes == 0


def test_an_updating_cell_encodes_only_what_it_modified(monkeypatch):
    encodes, puts = count_body_encodes(monkeypatch, update_fraction=0.9)
    assert 0 < encodes < puts


# -- blob invalidation --------------------------------------------------------


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
@pytest.mark.parametrize("mutation", ["put", "delete", "stamp"])
def test_a_mutation_drops_the_carried_bytes(tmp_path, backend, mutation):
    path = tmp_path / f"pages.{backend}"
    store = make_page_store(backend, 8, path)
    store.put(3, heap_page().to_image())
    image = store.get(3)
    blob = image.to_bytes()
    page = image.to_page()
    assert page.to_image() is image and page.to_image().to_bytes() is blob

    expected = dict(image.slots)
    if mutation == "put":
        page.put(1, (1, "rewritten", 9, None, -0.0), lsn=200)
        expected[1] = (1, "rewritten", 9, None, -0.0)
    elif mutation == "delete":
        page.delete(1, lsn=200)
        del expected[1]
    else:
        page.stamp(200)
    changed = page.to_image()
    assert changed is not image
    assert changed.to_bytes() != blob
    assert PageImage.from_bytes(changed.to_bytes()) == PageImage(10, 200, expected)
    assert image.to_bytes() is blob  # the old version still owns its bytes

    store.put(3, changed)
    store.flush()
    del store
    reopened = make_page_store(backend, 8, path)
    assert reopened.get(3) == PageImage(10, 200, expected)


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
def test_forking_a_store_copies_bytes_without_encoding(monkeypatch, backend):
    import copy

    store = make_page_store(backend, 16)
    store.adopt_slots({lba: heap_page().to_image() for lba in range(0, 16, 3)})

    def no_encode(*args):
        raise AssertionError("a forked store re-encoded a page body")

    monkeypatch.setattr(page_module, "_pack_page", no_encode)
    clone = copy.deepcopy(store)
    assert clone.snapshot_slots() == store.snapshot_slots()
    assert list(clone.occupied()) == list(range(0, 16, 3))


def test_batched_install_spans_several_writes(monkeypatch):
    """More records than one batch holds: every offset must still be right."""
    monkeypatch.setattr(MmapPageStore, "_INSTALL_BATCH", 7)
    store = MmapPageStore(64)
    images = {lba: Page(lba, lsn=lba, slots=heap_page().slots).to_image() for lba in range(40)}
    store.adopt_slots(images)
    assert store.snapshot_slots() == images
    store.put(5, "overwritten")  # appends after the batch, index still coherent
    assert store.get(5) == "overwritten" and store.get(39) == images[39]
    reopened = MmapPageStore(64, store.path)
    assert reopened.get(39) == images[39] and reopened.get(5) == "overwritten"
