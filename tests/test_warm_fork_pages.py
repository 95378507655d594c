"""A warm fork copies pages as pages.

``fork_dbms`` deep-copies a warmed system in one call.  A resident
:class:`~repro.db.page.Page` copies by freezing and thawing, so the two
systems share its rows copy-on-write, and a :class:`~repro.buffer.frame.Frame`
copies its six fields.  These tests pin both halves: no write on one side of
a fork (a fork of a fork included) reaches the other, and neither class goes
through ``copy``'s generic reduce-and-rebuild walk.  The flat containers —
directory ring, slot tables, WAL spines, full-page-write set — copy
themselves: the last tests pin that a write to one never reaches another
fork, that the aliases between them hold, and that the walk visits none of
them element by element.
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
    assert len(dbms.buffer.frames()) == 24
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
    # Still a private copy: the pool's table holds the clone's frames, and
    # each clone frame holds a clone page over the same rows.
    assert {id(f) for f in clone.buffer.frames()} == {
        id(f) for f in clone.buffer._frames.values()
    }
    for frame in clone.buffer.frames():
        original = warmed.buffer.peek(frame.page_id)
        assert frame is not original and frame.page is not original.page
        assert frame.page_id == frame.page.page_id == original.page_id
        assert (frame.dirty, frame.fdirty, frame.referenced) == (
            original.dirty, original.fdirty, original.referenced,
        )
        assert frame.page.slots is original.page.slots  # shared copy-on-write


# -- flat state: the containers that copy themselves --------------------------


@pytest.fixture(scope="module")
def wide():
    """A ``face+gsc`` system whose directory ring, slot tables, WAL, pool and
    full-page-write set each hold more than 64 entries: 1,024 keys (~580
    pages) over 96 frames and a 128-page flash queue, no checkpoint."""
    dbms = kv_dbms_with(
        CachePolicy.FACE_GSC, n_keys=1024, buffer_pages=96,
        cache_pages=128, scan_depth=8, segment_entries=16,
    )
    for step in range(900):
        k = (step * 389) % 1024
        if step % 3:
            kv_read(dbms, k)
        else:
            kv_write(dbms, k, f"w{step}")
    return dbms


def flat_state(dbms) -> tuple:
    """Copies of every container a fork copies flat, to compare later."""
    directory, log = dbms.cache.directory, dbms.log
    return (
        list(directory.page_ids), list(directory.lsns), list(directory.flags),
        dict(directory.valid_pos), dict(dbms.flash.store._slots),
        dict(dbms.disk.store._slots), set(log._fpw_done), list(log._tail),
        list(log._durable),
    )


def test_the_wide_system_is_wide(wide):
    sizes = [len(container) for container in flat_state(wide)]
    sizes.append(len(wide.buffer._frames))
    assert min(sizes[:7] + sizes[8:]) > 64, sizes  # the tail is empty between writes


def scribble(dbms) -> None:
    """One write into each flat container, through the owner's API where
    the owner has one."""
    directory, log = dbms.cache.directory, dbms.log
    directory.page_ids[0] = -1
    directory.lsns[0] = -1
    directory.flags[0] ^= 1
    directory.valid_pos[-1] = 0
    image = Page(-1).to_image()
    dbms.flash.write_page(0, image)
    dbms.disk.write_page(0, image)
    log.take_fpw(-1)
    log.log_begin(-1)  # the tail
    log.force()  # the durable list


@pytest.mark.parametrize("written", ["original", "fork", "fork of a fork"])
def test_a_write_to_flat_state_never_reaches_another_fork(wide, written):
    fork = fork_dbms(wide)
    sides = {"original": wide, "fork": fork, "fork of a fork": fork_dbms(fork),
             "sibling": fork_dbms(wide)}
    if written == "original":
        sides["original"] = fork_dbms(wide)  # keep the module's system pristine
    before = {name: flat_state(side) for name, side in sides.items()}
    assert len({repr(state) for state in before.values()}) == 1
    scribble(sides[written])
    for name, side in sides.items():
        if name == written:
            assert flat_state(side) != before[name]
            # The volume's direct table is its store's: the write reached both.
            assert side.disk.store.peek(0) is side.disk.peek(0)
        else:
            assert flat_state(side) == before[name], name


def test_a_fork_keeps_its_aliases(wide):
    clone = fork_dbms(fork_dbms(wide))
    assert clone.disk._slots is clone.disk.store._slots
    assert clone.flash._slots is clone.flash.store._slots
    assert clone.cache.flash is clone.flash is clone.cache.metadata.flash
    assert clone.cache.disk is clone.disk
    assert clone.disk.store is not wide.disk.store
    assert clone.cache.directory is not wide.cache.directory
    # The pool's table holds new frames, in the same LRU order.
    pool = clone.buffer._frames
    assert list(pool) == list(wide.buffer._frames)
    assert all(frame.page_id == page_id for page_id, frame in pool.items())
    assert not {id(f) for f in pool.values()} & {id(f) for f in wide.buffer._frames.values()}
    # What the fork shares is immutable: page images, cache slots, WAL records.
    assert all(a is b for a, b in zip(clone.log._durable, wide.log._durable))
    for volume, theirs in ((clone.disk, wide.disk), (clone.flash, wide.flash)):
        assert all(volume.peek(lba) is theirs.peek(lba) for lba in theirs.store.occupied())


def test_the_fork_walks_no_large_container(wide, monkeypatch):
    walked: list[tuple[str, int]] = []
    for kind in (list, dict, tuple):
        inner = copy._deepcopy_dispatch[kind]

        def counted(x, memo, *args, inner=inner):
            walked.append((type(x).__name__, len(x)))
            return inner(x, memo, *args)

        monkeypatch.setitem(copy._deepcopy_dispatch, kind, counted)
    fork_dbms(wide)
    assert walked  # the walk ran, over the small objects of the graph
    assert [entry for entry in walked if entry[1] > 64] == []
