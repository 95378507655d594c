"""The page codec: run-columnar layout, fail-closed decode, bytes that travel.

Five contracts of ``repro.db.page``'s on-media format (DESIGN.md §14):

* every page of one columnar shape round-trips exactly, any other page is a
  :class:`~repro.errors.StorageError` at encode, and an image decoded from
  bytes hands those very bytes back;
* a damaged blob is a :class:`~repro.errors.StorageError`, never a raw
  ``struct.error`` / ``IndexError`` and never a silently short value;
* a page nobody modified is never re-encoded on its way DRAM → flash →
  disk (counted, in the style of ``test_miss_path_budget.py``);
* the carried bytes die with the cached image on the first mutation;
* a decoded page is built only as far as it is read — a decode unpacks
  its key columns and string lengths alone, a probe answers exactly what
  the built dict would, and a page that is only moved builds nothing
  (counted).
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import page as page_module
from repro.db.page import Page, PageImage
from repro.errors import StorageError
from repro.flashcache.metadata import CacheSlotImage, _SegmentImage, _Superblock
from repro.flashcache.mvfifo import MvFifoCache
from repro.storage.codec import decode_storable, encode_storable
from repro.storage.persistent import MmapPageStore
from repro.storage.registry import make_page_store

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


#: Irregular slots — nested tuples, ragged widths — that no columnar run holds.
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
    """A page of one columnar shape, any mix of column kinds (or an empty
    page): what the engine writes."""
    slots = dict(draw(uniform_segment() | st.just([])))
    return Page(draw(INT64), lsn=draw(INT64), slots=slots)


@st.composite
def mixed_pages(draw):
    """A page whose shape may change mid-page."""
    segments = draw(st.lists(uniform_segment() | IRREGULAR_SEGMENT, min_size=1, max_size=4))
    slots = {key: row for segment in segments for key, row in segment}
    return Page(draw(INT64), lsn=draw(INT64), slots=slots)


#: Column kind of a value (``None`` for one no column holds, such as a tuple).
KIND = {int: "q", bool: "q", float: "d", str: "s", type(None): "n"}


def columnar(slots) -> bool:
    """Whether one columnar run holds ``slots``: every key a scalar, or every
    key a non-empty tuple of one arity; one row width; one kind per column."""
    shapes = set()
    for key, row in slots.items():
        parts = key if type(key) is tuple else (key,)
        kinds = tuple(KIND.get(type(value)) for value in (*parts, *row))
        if None in kinds or not parts:
            return False
        shapes.add((type(key) is tuple, len(parts), kinds))
    return len(shapes) <= 1


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

    @settings(max_examples=300, deadline=None)
    @given(mixed_pages())
    def test_a_page_encodes_only_as_one_columnar_run(self, page):
        if columnar(page.slots):
            assert PageImage.from_bytes(page.to_bytes()).slots == page.slots
        else:
            with pytest.raises(StorageError, match="not one columnar shape"):
                page.to_bytes()

    def test_int_outside_int64_is_a_storage_error(self):
        for slots in ({0: (2**63,)}, {2**70: (1,)}, {0: ((2**63,),)}):
            with pytest.raises(StorageError):
                Page(1, slots=slots).to_bytes()


# -- damaged input ------------------------------------------------------------


def bucket_page() -> Page:
    """A hash-index bucket: 1-tuple keys -> (page, slot) rids."""
    return Page(9, lsn=77, slots={(k * 37,): (1000 + k // 27, k % 27) for k in range(120)})


def heap_page() -> Page:
    return Page(10, lsn=78, slots={i: (i, f"payload-é{i}", 0, None, 2.5) for i in range(27)})


def composite_page() -> Page:
    """A TPC-C ORDER bucket: (warehouse, district, order) keys -> rids."""
    return Page(11, lsn=79, slots={(1, d, o): (100 + o, o % 20) for d in (1, 2) for o in range(12)})


SAMPLES = {"bucket": bucket_page, "heap": heap_page, "composite": composite_page}


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
    blob = Page(1, slots={"e": ("a long enough string",)}).to_bytes()
    with pytest.raises(StorageError):
        PageImage.from_bytes(blob[:-1])


STORED_KINDS = {
    "page": heap_page().to_image(),
    "slot": CacheSlotImage(5, True, bucket_page().to_image()),
    "none": None,
    "superblock": _Superblock(front=3, rear_at_flush=9, segment_lbas=(1, 2)),
    "segment": _SegmentImage(first_position=4, entries=((4, 10, 78, True), (5, 9, 77, False))),
}


def test_stored_values_reject_trailing_bytes_and_truncation():
    for obj in STORED_KINDS.values():
        blob = encode_storable(obj)
        assert decode_storable(blob) == obj
        for damaged in {blob + b"\x00", blob + b"junk", blob[:-1], blob[:2]} - {blob}:
            with pytest.raises(StorageError):
                decode_storable(damaged)
    # A page store holds pages, cache slots and flash metadata: nothing else.
    for value in (2**64, ("sentinel", 7), "a sentinel string", 3.25):
        with pytest.raises(StorageError, match="cannot encode"):
            encode_storable(value)


@pytest.mark.parametrize("kind", ["slot", "segment"])
def test_a_dirty_byte_is_zero_or_one(kind):
    """Any other value would decode as ``dirty=True`` and re-encode to
    different bytes: it is damage, and fails closed."""
    blob = encode_storable(STORED_KINDS[kind])
    # The slot footer's flag, or the first metadata entry's.
    at = 1 + 8 if kind == "slot" else 1 + 12 + 24
    assert blob[at] == 1
    for byte in (0, 1):
        damaged = blob[:at] + bytes([byte]) + blob[at + 1 :]
        assert encode_storable(decode_storable(damaged)) == damaged
    for byte in (2, 7, 255):
        with pytest.raises(StorageError, match="dirty byte"):
            decode_storable(blob[:at] + bytes([byte]) + blob[at + 1 :])


# -- the re-encode budget -----------------------------------------------------


def run_tiny_mmap_cell(n_keys: int, update_fraction: float) -> None:
    """Run one TINY ycsb cell on ``mmap`` from a forked, populated store."""
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.parallel import CellSpec, run_cells
    from repro.tpcc.scale import TINY

    config = ExperimentConfig(
        scale=TINY,
        seed=5,
        workload="ycsb",
        workload_knobs={"n_keys": n_keys, "update_fraction": update_fraction},
        measure_transactions=60,
        warmup_min=30,
        warmup_max=30,
        page_store="mmap",
    )
    spec = CellSpec.from_config(("cell",), config, replay_ok=False)
    assert run_cells([spec], jobs=1, fast=True)[("cell",)].transactions > 0


def count_body_encodes(monkeypatch, update_fraction: float) -> tuple[int, int]:
    """Run a TINY ycsb cell on ``mmap``; ``(page-body encodes, puts of a
    page)`` after the cell's store was populated.  A page put alone or in a
    batch (``put_many``) counts the same."""
    counts = {"encodes": 0, "puts": 0, "installing": False}
    pack_page, put = page_module._pack_page, MmapPageStore.put
    put_many, install = MmapPageStore.put_many, MmapPageStore._install_slots

    def counted_pack(*args):
        counts["encodes"] += not counts["installing"]
        return pack_page(*args)

    def counted_put(self, lba, image):
        # Page-carrying puts only: metadata segments have no page body.
        counts["puts"] += not counts["installing"] and isinstance(
            image, (PageImage, CacheSlotImage)
        )
        return put(self, lba, image)

    def counted_put_many(self, items):
        items = list(items)
        if not counts["installing"]:
            counts["puts"] += sum(
                isinstance(image, (PageImage, CacheSlotImage)) for _, image in items
            )
        return put_many(self, items)

    def flagged_install(self, slots):
        counts["installing"] = True
        try:
            return install(self, slots)
        finally:
            counts["installing"] = False

    monkeypatch.setattr(page_module, "_pack_page", counted_pack)
    monkeypatch.setattr(MmapPageStore, "put", counted_put)
    monkeypatch.setattr(MmapPageStore, "put_many", counted_put_many)
    monkeypatch.setattr(MmapPageStore, "_install_slots", flagged_install)
    run_tiny_mmap_cell(5_000, update_fraction)
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

    def no_codec(*args):
        raise AssertionError("a forked store encoded or decoded a page body")

    with monkeypatch.context() as during_copy:
        during_copy.setattr(page_module, "_pack_page", no_codec)
        during_copy.setattr(page_module, "_unpack_page", no_codec)
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
    overwritten = Page(5, lsn=99, slots={0: ("overwritten",)}).to_image()
    store.put(5, overwritten)  # appends after the batch, index still coherent
    assert store.get(5) == overwritten and store.get(39) == images[39]
    reopened = MmapPageStore(64, store.path)
    assert reopened.get(39) == images[39] and reopened.get(5) == overwritten


# -- lazy probes: decoded only as far as read ---------------------------------


def probe_candidates(key) -> list:
    """Keys a probe might be given beside ``key``: type twins, other shapes,
    neighbours — present or absent, each must answer as the dict would."""
    parts = key if type(key) is tuple else (key,)
    twins = [tuple(float(p) if type(p) is int else p for p in parts)]
    twins.append(tuple(bool(p) if type(p) is int and p in (0, 1) else p for p in parts))
    twins.append(tuple(p + 1 if type(p) is int else p + "\x00" for p in parts))
    candidates = [parts, parts + (0,), parts[:-1], None, -0.0, "é中"]
    for twin in twins:
        candidates += [twin, *twin[:1]]
    return candidates


def eager(page: Page) -> dict:
    """What decoding ``page`` must give: its slots, booleans stored as 0/1."""
    return {key: degrade(row) for key, row in page.slots.items()}


def same(a, b) -> bool:
    """Equal with types and float signs visible (``-0.0 == 0.0``)."""
    return repr(degrade(a)) == repr(degrade(b))


class TestLazyProbes:
    @settings(max_examples=300, deadline=None)
    @given(pages())
    def test_a_probe_answers_what_the_built_dict_answers(self, page):
        blob = page.to_bytes()
        expected = eager(page)
        probes = list(expected)
        for key in expected:
            probes += probe_candidates(key)
        for key in probes:  # each on a fresh decode: the probe path itself
            assert same(PageImage.from_bytes(blob).to_page().get(key), expected.get(key))
        shared = PageImage.from_bytes(blob).to_page()  # past the build threshold
        for key in probes:
            assert same(shared.get(key), expected.get(key))

    @settings(max_examples=200, deadline=None)
    @given(pages())
    def test_the_full_mapping_is_the_built_dict(self, page):
        blob = page.to_bytes()
        expected = eager(page)
        for view in (
            lambda s: dict(s), lambda s: list(s), len, lambda s: list(s.items()),
            lambda s: s == expected, lambda s: copy.deepcopy(s) == expected,
            lambda s: pickle.loads(pickle.dumps(s)) == expected, lambda s: s.copy(),
            lambda s: page_module._pack_page(page.page_id, page.lsn, s),
        ):
            slots = PageImage.from_bytes(blob).slots
            assert same(view(slots), view(expected))
        slots = PageImage.from_bytes(blob).slots
        assert exact(dict(slots)) == exact(expected)
        assert page_module._pack_page(page.page_id, page.lsn, slots) == blob

    def test_single_run_pages_decode_lazily_and_others_eagerly(self):
        lazy = (bucket_page(), heap_page(), composite_page(),
                Page(1, slots={(1, "a"): (2,), (1, "b"): (3,)}))
        for page in lazy:
            assert type(PageImage.from_bytes(page.to_bytes()).slots) is page_module._ColumnarRun
        # An empty page has no run: its slots are the (empty) dict.
        assert type(PageImage.from_bytes(Page(3).to_bytes()).slots) is dict

    def test_a_page_probed_on_every_slot_builds_its_dict_once(self, monkeypatch):
        builds, scans = count_calls(monkeypatch, "_build"), count_calls(monkeypatch, "_probe")
        page = PageImage.from_bytes(bucket_page().to_bytes()).to_page()
        for key, row in bucket_page().slots.items():
            assert page.get(key) == row
        assert sum(builds.values()) == 1
        assert sum(scans.values()) == page_module._PROBES_BEFORE_DICT

    def test_a_probed_once_page_builds_nothing_and_a_write_builds_a_copy(self, monkeypatch):
        builds = count_calls(monkeypatch, "_build")
        image = PageImage.from_bytes(heap_page().to_bytes())
        page = image.to_page()
        assert page.get(3) == degrade(heap_page().slots[3])
        assert not builds
        page.put(3, (3, "new", 1, None, 0.5), lsn=90)
        assert sum(builds.values()) == 1
        assert type(page.slots) is dict and image.slots._dict is None  # the image stays lazy

    @pytest.mark.parametrize("sample", ["bucket", "heap"])
    def test_a_decode_never_unpacks_the_whole_column_block(self, monkeypatch, sample):
        """Decode and probe read the key column, the string lengths and one
        row; only the dict build unpacks every column (pinned by a block
        struct that refuses to unpack)."""
        page = SAMPLES[sample]()
        blob, expected = page.to_bytes(), eager(page)
        column_block = page_module._column_block

        class Refusing:
            def __init__(self, block):
                self.size, self.pack = block.size, block.pack

            def unpack_from(self, *args):
                raise AssertionError("the whole column block was unpacked")

        monkeypatch.setattr(
            page_module, "_column_block", lambda *key: Refusing(column_block(*key))
        )
        for key in list(expected)[:: len(expected) // 5]:
            assert PageImage.from_bytes(blob).to_page().get(key) == expected[key]
            assert PageImage.from_bytes(blob).slots.get(key) == expected[key]
        for whole in (lambda s: s.copy(), list, dict):
            with pytest.raises(AssertionError, match="whole column block"):
                whole(PageImage.from_bytes(blob).slots)


def count_calls(monkeypatch, name: str) -> Counter:
    """Count calls of ``_ColumnarRun.<name>`` per run object."""
    calls: Counter = Counter()
    method = getattr(page_module._ColumnarRun, name)

    def counted(self, *args):
        calls[id(self)] += 1
        return method(self, *args)

    monkeypatch.setattr(page_module._ColumnarRun, name, counted)
    return calls


class TestFailClosedAtDecode:
    """Damage the lazy decoder could have deferred still fails in ``from_bytes``."""

    @staticmethod
    def rejected(body: bytes) -> None:
        with pytest.raises(StorageError):
            PageImage.from_bytes(body)
        with pytest.raises(StorageError):
            decode_storable(bytes([1]) + body)  # the page-image kind
        slot = encode_storable(CacheSlotImage(position=4, dirty=False, image=heap_page().to_image()))
        header = len(slot) - len(heap_page().to_bytes())
        with pytest.raises(StorageError):
            decode_storable(slot[:header] + body)

    @pytest.mark.parametrize("scalar", [True, False])
    def test_a_duplicate_key_in_a_columnar_run(self, scalar):
        key = (lambda k: k) if scalar else (lambda k: (k,))
        blob = Page(1, slots={key(7): (1,), key(8): (2,)}).to_bytes()
        first, second = (7).to_bytes(8, "little"), (8).to_bytes(8, "little")
        assert blob.count(first) == blob.count(second) == 1
        self.rejected(blob.replace(second, first))

    def test_invalid_utf8_in_the_string_heap(self):
        blob = heap_page().to_bytes()
        text = "é".encode()
        assert text in blob
        self.rejected(blob.replace(text, b"\xff\xfe"))

    @pytest.mark.parametrize("extra", [1, 2**20])
    def test_a_slot_count_that_overruns_the_blob(self, extra):
        """A run header (and page header) claiming more slots than the blob
        holds: a decode that unpacks only the key columns must still find
        the column block short, before it reads anything past it."""
        blob = bucket_page().to_bytes()  # no string heap after the block
        magic, page_id, lsn, nslots = page_module._HEADER.unpack_from(blob)
        kind, count, signature_len, heap_len = page_module._RUN.unpack_from(
            blob, page_module._HEADER.size
        )
        damaged = b"".join((
            page_module._HEADER.pack(magic, page_id, lsn, nslots + extra),
            page_module._RUN.pack(kind, count + extra, signature_len, heap_len),
            blob[page_module._HEADER.size + page_module._RUN.size :],
        ))
        with pytest.raises(StorageError, match="truncated column block"):
            PageImage.from_bytes(damaged)
        self.rejected(damaged)


def count_builds_in_a_read_only_cell(monkeypatch) -> dict:
    """Run a TINY read-only ycsb cell on ``mmap`` and count dict builds.

    A page is *moved* when a batch read hands it to a GSC survivor's
    re-enqueue or a dequeue's write-back (``MvFifoCache._read_slots``);
    on a persistent store it arrives as the object the store was given, so
    the census counts the builds made while it is moved, not its history."""
    run_type = page_module._ColumnarRun
    probes, builds = Counter(), Counter()
    alive = []  # every run seen, so that ids stay unique
    counts = {"builds_in_put": 0, "early_builds": 0, "moved": 0, "moved_built": 0}
    probe, build, put = run_type._probe, run_type._build, MmapPageStore.put
    put_many, read_slots = MmapPageStore.put_many, MvFifoCache._read_slots

    def counted_probe(self, key, default):
        alive.append(self)
        probes[id(self)] += 1
        return probe(self, key, default)

    def counted_build(self):
        alive.append(self)
        builds[id(self)] += 1
        counts["early_builds"] += probes[id(self)] < page_module._PROBES_BEFORE_DICT
        return build(self)

    def counted_put(self, lba, image):
        before = sum(builds.values())
        put(self, lba, image)
        counts["builds_in_put"] += sum(builds.values()) - before

    def counted_put_many(self, items):
        before = sum(builds.values())
        put_many(self, items)
        counts["builds_in_put"] += sum(builds.values()) - before

    def counted_read_slots(self, positions):
        before = sum(builds.values())
        images = read_slots(self, positions)  # a batch read paid for them
        counts["moved"] += len(images)
        counts["moved_built"] += sum(builds.values()) - before
        return images

    monkeypatch.setattr(run_type, "_probe", counted_probe)
    monkeypatch.setattr(run_type, "_build", counted_build)
    monkeypatch.setattr(MmapPageStore, "put", counted_put)
    monkeypatch.setattr(MmapPageStore, "put_many", counted_put_many)
    monkeypatch.setattr(MvFifoCache, "_read_slots", counted_read_slots)
    run_tiny_mmap_cell(30_000, update_fraction=0.0)  # more keys than the flash cache holds
    return dict(
        counts,
        probed_once=sum(1 for n in probes.values() if n == 1),
        probed_once_built=sum(1 for run, n in probes.items() if n == 1 and builds[run]),
        max_builds=max(builds.values(), default=0),
    )


def test_a_read_only_cell_builds_only_the_pages_it_probes_often(monkeypatch):
    counts = count_builds_in_a_read_only_cell(monkeypatch)
    # Survivors and write-backs were moved: the run proves something, and
    # moving a page — reading it off flash, writing it on — built nothing.
    assert counts["moved"] > 0
    assert counts["probed_once"] > 0
    assert counts["moved_built"] == 0
    assert counts["builds_in_put"] == 0
    assert counts["probed_once_built"] == 0
    assert counts["early_builds"] == 0
    assert counts["max_builds"] <= 1


def count_decodes_in_a_read_only_cell(monkeypatch) -> Counter:
    """Run the read-only cell of the build census: page-body decodes, and
    the page bodies read from each device — a disk read returns a
    ``PageImage``, a flash-slot read a ``CacheSlotImage``."""
    counts = Counter()
    unpack_page = page_module._unpack_page
    get, peek_many = MmapPageStore.get, MmapPageStore.peek_many

    def counted_unpack(data):
        counts["decodes"] += 1
        return unpack_page(data)

    def note(obj):  # ``MmapPageStore.peek`` reads through ``get``
        counts["disk_reads"] += type(obj) is PageImage
        counts["flash_reads"] += type(obj) is CacheSlotImage
        return obj

    monkeypatch.setattr(page_module, "_unpack_page", counted_unpack)
    monkeypatch.setattr(MmapPageStore, "get", lambda self, lba: note(get(self, lba)))
    monkeypatch.setattr(
        MmapPageStore, "peek_many", lambda self, lbas: [note(o) for o in peek_many(self, lbas)]
    )
    run_tiny_mmap_cell(30_000, update_fraction=0.0)
    return counts


def test_a_read_only_cell_decodes_only_what_it_reads_from_disk(monkeypatch):
    """A page written to flash comes back as the object written: the cell
    decodes one body per disk read, and none per flash-slot read."""
    counts = count_decodes_in_a_read_only_cell(monkeypatch)
    assert counts["disk_reads"] > 0 and counts["flash_reads"] > 0
    assert counts["decodes"] == counts["disk_reads"]


def test_an_updating_cell_encodes_what_it_encoded_before(monkeypatch):
    """Remembering a write spares decodes, never adds an encode: pinned to
    the count measured before stores remembered their writes."""
    encodes, puts = count_body_encodes(monkeypatch, update_fraction=0.9)
    assert (encodes, puts) == (288, 355)


# -- each body copied once ----------------------------------------------------


def test_a_blob_decodes_in_place_from_a_larger_buffer():
    """The mmap store decodes straight out of its window: ``decode_storable``
    takes the record's bounds, and an image keeps exactly its body bytes."""
    pad = b"\x07" * 13
    body = heap_page().to_bytes()
    for obj in (heap_page().to_image(), CacheSlotImage(5, True, heap_page().to_image()),
                None, _Superblock(front=3, rear_at_flush=9, segment_lbas=(1, 2))):
        blob = encode_storable(obj)
        decoded = decode_storable(pad + blob + pad, len(pad), len(pad) + len(blob))
        assert decoded == decode_storable(blob) == obj
        image = getattr(decoded, "image", decoded)
        if isinstance(image, PageImage):
            assert type(image.to_bytes()) is bytes and image.to_bytes() == body
    with pytest.raises(StorageError):
        decode_storable(pad, 3, 3)


def test_the_mmap_store_hands_back_the_body_bytes(tmp_path):
    store = MmapPageStore(4, tmp_path / "pages")
    store.put(1, heap_page().to_image())
    store.put(2, CacheSlotImage(9, False, bucket_page().to_image()))
    assert store.get(1).to_bytes() == heap_page().to_bytes()
    assert store.get(2).image.to_bytes() == bucket_page().to_bytes()
    assert store.get(2) == CacheSlotImage(9, False, bucket_page().to_image())


@pytest.mark.parametrize("backend", ["mmap", "sqlite"])
def test_a_decoded_value_is_built_like_a_constructed_one(backend):
    """``from_bytes`` builds the image with ``tuple.__new__`` and keeps the
    blob in its ``__dict__``, and ``decode_storable`` builds a slot with
    ``tuple.__new__``: neither calls a constructor, and neither may tell
    from the constructed value."""
    store = make_page_store(backend, 4)
    page = heap_page()
    constructed = PageImage(page.page_id, page.lsn, eager(page))
    store.put(1, page.to_image())
    store.put(2, CacheSlotImage(7, True, page.to_image()))
    store.put(3, CacheSlotImage(8, False, bucket_page().to_image()))

    image = store.get(1)
    assert type(image) is PageImage
    assert image == constructed and repr(image) == repr(constructed)
    assert image._fields == constructed._fields == ("page_id", "lsn", "slots")
    assert [getattr(image, name) for name in image._fields] == [
        getattr(constructed, name) for name in constructed._fields
    ]
    assert image._replace(lsn=5) == constructed._replace(lsn=5)
    assert image._replace(lsn=5)._blob is None  # a changed value keeps no bytes
    assert list(vars(image)) == [*vars(constructed), "_blob"]
    with pytest.raises(AttributeError):
        image.lsn = 5

    for lba, position, dirty, source in ((2, 7, True, page), (3, 8, False, bucket_page())):
        slot = store.get(lba)
        assert type(slot) is CacheSlotImage and type(slot.dirty) is bool
        body = PageImage(source.page_id, source.lsn, eager(source))
        expected = CacheSlotImage(position, dirty, body)
        assert slot == expected and repr(slot) == repr(expected)
        assert slot._asdict() == expected._asdict()
        assert (slot.page_id, slot.lsn) == (source.page_id, source.lsn)
