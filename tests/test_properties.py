"""Property-based tests (hypothesis) for the core data structures."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.buffer.pool import BufferPool
from repro.db.page import Page, PageImage
from repro.flashcache.directory import FifoDirectory
from repro.storage.backing import MemoryPageStore
from repro.storage.device import Device
from repro.storage.profiles import MLC_SAMSUNG_470
from tests.conftest import enqueue_version, fifo_cache
from tests.test_fifo_directory import check_invariant

# -- Page serde ---------------------------------------------------------------

column = st.sampled_from([
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
])
slot_key = st.sampled_from([
    st.integers(min_value=0, max_value=10_000),
    st.tuples(st.integers(min_value=0, max_value=100), st.text(max_size=8)),
])


@st.composite
def page_slots(draw):
    """Slots of one shape — one key kind, three columns of one kind each —
    as every page the engine writes is."""
    row = st.tuples(*(draw(column) for _ in range(3)))
    return draw(st.dictionaries(draw(slot_key), row, max_size=20))


@given(
    page_id=st.integers(min_value=0, max_value=2**40),
    lsn=st.integers(min_value=0, max_value=2**40),
    slots=page_slots(),
)
def test_page_serde_roundtrip(page_id, lsn, slots):
    page = Page(page_id, lsn=lsn, slots=dict(slots))
    restored = PageImage.from_bytes(page.to_image().to_bytes()).to_page()
    assert restored.page_id == page_id
    assert restored.lsn == lsn
    assert restored.slots == slots


# -- mvFIFO directory invariant --------------------------------------------------


@given(page_ids=st.lists(st.integers(min_value=0, max_value=9), max_size=200))
def test_fifo_directory_invariant_holds_under_any_sequence(page_ids):
    # Versions enter through the cache's own enqueue, which dequeues the
    # front whenever the queue is full, as it does in a run.
    cache = fifo_cache(12)
    directory = cache.directory
    for page_id in page_ids:
        enqueue_version(cache, page_id, 1, dirty=bool(page_id % 2))
        check_invariant(directory)
        assert 0 <= directory.size <= 12


# -- directory restore equivalence ------------------------------------------------


@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.booleans()),
        max_size=40,
    ),
    dequeues=st.integers(min_value=0, max_value=10),
)
def test_restore_equals_replay(entries, dequeues):
    """Rebuilding from (front, rear, entries) must equal the live directory
    that executed the same history."""
    capacity = 16
    cache = fifo_cache(capacity)
    live = cache.directory
    log = []
    for page_id, dirty in entries:
        pos = enqueue_version(cache, page_id, 1, dirty)
        log.append((pos, page_id, 1, dirty))
    for _ in range(min(dequeues, live.size)):
        live.dequeue_batch(1)

    restored = FifoDirectory(capacity)
    restored.restore(live.front, live.rear, log)
    assert restored.size == live.size
    for pos in live.live_positions():
        a, b = live.meta_at(pos), restored.meta_at(pos)
        assert (a.page_id, a.dirty, a.valid) == (b.page_id, b.dirty, b.valid)


# -- buffer pool vs a reference LRU model ----------------------------------------


@given(
    accesses=st.lists(st.integers(min_value=0, max_value=15), max_size=300),
)
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_buffer_pool_matches_lru_model(accesses):
    pool = BufferPool(capacity=4)
    model: list[int] = []  # LRU order, front = coldest
    for pid in accesses:
        frame = pool.lookup(pid)
        if frame is None:
            victim = pool.make_room()
            if victim is not None:
                assert victim.page_id == model.pop(0)
            pool.admit(Page(pid))
            model.append(pid)
        else:
            model.remove(pid)
            model.append(pid)
        assert set(model) == {f.page_id for f in pool.frames()}


# -- PageStore model ------------------------------------------------------------


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "del"]),
                  st.integers(min_value=0, max_value=19),
                  st.integers()),
        max_size=200,
    )
)
def test_page_store_matches_dict_model(ops):
    store = MemoryPageStore(20)
    model: dict[int, int] = {}
    for op, lba, payload in ops:
        if op == "put":
            store.put(lba, payload)
            model[lba] = payload
        else:
            store.delete(lba)
            model.pop(lba, None)
    assert set(store.occupied()) == set(model)
    for lba, expected in model.items():
        assert store.get(lba) == expected


# -- device busy time conservation --------------------------------------------------


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=99),
                  st.integers(min_value=1, max_value=8)),
        max_size=100,
    )
)
def test_device_busy_time_equals_sum_of_service_times(ops):
    device = Device(MLC_SAMSUNG_470, capacity_pages=200)
    total = 0.0
    pages = 0
    for is_read, lba, npages in ops:
        if is_read:
            total += device.read(lba, npages)
        else:
            total += device.write(lba, npages)
        pages += npages
    assert device.busy_time == total
    assert device.stats.total_pages == pages
