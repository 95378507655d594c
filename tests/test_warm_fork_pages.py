"""A warm fork copies pages as pages.

``fork_dbms`` deep-copies a warmed system in one call.  A resident
:class:`~repro.db.page.Page` copies by freezing and thawing, so the two
systems share its rows copy-on-write, and a :class:`~repro.buffer.frame.Frame`
copies its six fields.  These tests pin both halves: no write on one side of
a fork (a fork of a fork included) reaches the other, and neither class goes
through ``copy``'s generic reduce-and-rebuild walk.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.buffer.frame import Frame
from repro.core.config import CachePolicy
from repro.db.page import Page
from repro.sim.warmstate import fork_dbms
from tests.conftest import kv_dbms_with, kv_read, kv_write

N_KEYS = 256


@pytest.fixture(scope="module")
def warmed():
    """A ``face+gsc`` system after 300 reads and writes: its 24 frames hold
    pages thawed from flash or disk and pages written since."""
    dbms = kv_dbms_with(
        CachePolicy.FACE_GSC, n_keys=N_KEYS, buffer_pages=24,
        cache_pages=64, scan_depth=8, segment_entries=16,
    )
    for step in range(300):
        k = (step * 37) % N_KEYS
        if step % 3:
            kv_read(dbms, k)
        else:
            kv_write(dbms, k, f"w{step}")
    assert len(dbms.buffer) == 24
    return dbms


def pages(dbms) -> dict[int, Page]:
    return {frame.page_id: frame.page for frame in dbms.buffer.frames()}


#: One write: (side, which resident page, kind, value).
WRITES = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 23),
        st.sampled_from(["put", "delete", "stamp", "slots"]),
        st.integers(0, 9),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(writes=WRITES)
def test_a_write_on_one_side_of_a_fork_never_reaches_another(warmed, writes):
    first = fork_dbms(warmed)
    second = fork_dbms(first)
    third = fork_dbms(second)  # a fork of a fork
    sides = [first, second, third]
    ids = list(pages(first))
    assert [list(pages(side)) for side in sides] == [ids] * 3
    before = {
        (n, pid): (dict(page.slots), page.lsn, page.to_image())
        for n, side in enumerate(sides)
        for pid, page in pages(side).items()
    }
    model = {key: [rows.copy(), lsn] for key, (rows, lsn, _) in before.items()}
    written: set[tuple[int, int]] = set()

    for n, pick, kind, value in writes:
        pid = ids[pick % len(ids)]
        page = pages(sides[n])[pid]
        rows, lsn = model[n, pid]
        new_lsn = lsn + 1 + value
        if kind == "put":
            slot = list(rows)[value % len(rows)] if rows and value % 2 else 10_000 + value
            page.put(slot, ("written", value), new_lsn)
            rows[slot] = ("written", value)
        elif kind == "delete":
            slot = list(rows)[value % len(rows)] if rows else 10_000 + value
            page.delete(slot, new_lsn)
            rows.pop(slot, None)
        elif kind == "stamp":
            page.stamp(new_lsn)
        else:
            page.slots = {0: ("assigned", value)}
            rows.clear()
            rows[0] = ("assigned", value)
            new_lsn = lsn
        model[n, pid][1] = new_lsn
        written.add((n, pid))

    for (n, pid), (rows, lsn, image) in before.items():
        page = pages(sides[n])[pid]
        assert dict(page.slots) == model[n, pid][0]
        assert page.lsn == model[n, pid][1]
        # What was frozen before any write stays as it was.
        assert dict(image.slots) == rows and image.lsn == lsn
        if (n, pid) not in written:
            assert page.to_image() is image
        else:
            assert dict(page.to_image().slots) == model[n, pid][0]
    # The system the forks came from is untouched too.
    for pid, page in pages(warmed).items():
        assert dict(page.slots) == before[0, pid][0]
        assert page.lsn == before[0, pid][1]


def test_fork_copies_frames_and_pages_without_the_generic_walk(warmed, monkeypatch):
    rebuilt: list[type] = []
    reconstruct = copy._reconstruct

    def counted(x, memo, *args, **kwargs):
        rebuilt.append(type(x))
        return reconstruct(x, memo, *args, **kwargs)

    monkeypatch.setattr(copy, "_reconstruct", counted)
    clone = fork_dbms(fork_dbms(warmed))
    assert rebuilt  # the walk ran, for the other objects of the graph
    assert Frame not in rebuilt and Page not in rebuilt
    # Still a private copy: the pool and its policy share the clone's frames,
    # and each clone frame holds a clone page over the same rows.
    assert {id(f) for f in clone.buffer.frames()} == {
        id(f) for f in clone.buffer._frames.values()
    }
    for frame in clone.buffer.frames():
        original = warmed.buffer.peek(frame.page_id)
        assert frame is not original and frame.page is not original.page
        assert frame.page_id == frame.page.page_id == original.page_id
        assert (frame.dirty, frame.fdirty, frame.pin_count, frame.referenced) == (
            original.dirty, original.fdirty, original.pin_count, original.referenced,
        )
        assert frame.page.slots is original.page.slots  # shared copy-on-write
