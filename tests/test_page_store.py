"""Pluggable page-store backends: interface contract, codec, parity, crash.

Every test in ``TestBackendContract`` runs against all registered backends
— the contract is the point.  The parity test pins the tentpole claim:
backend choice never changes simulation results, because the device model
owns all simulated time and backends only hold bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.db.page import Page, PageImage
from repro.errors import ConfigError, OutOfRangeError, PageNotFoundError, StorageError
from repro.flashcache.metadata import CacheSlotImage, _SegmentImage, _Superblock
from repro.obs import OBS
from repro.storage.backing import PageStore
from repro.storage.codec import decode_storable, encode_storable
from repro.storage.persistent import MmapPageStore, SqlitePageStore
from repro.storage.registry import available_backends, make_page_store, page_store_class

ROOT = pathlib.Path(__file__).resolve().parent.parent

BACKENDS = ("memory", "sqlite", "mmap")
PERSISTENT = ("sqlite", "mmap")


def sample_image(page_id: int = 7, lsn: int = 42) -> PageImage:
    page = Page(page_id, lsn=lsn)
    page.put(0, (page_id, "row-zero", 3.5, None), lsn=lsn)
    page.put(3, (-2, "row-three", -0.0, None), lsn=lsn)
    return page.to_image()


def image(tag: str) -> PageImage:
    """A one-row page image standing for a stored value in contract tests."""
    return PageImage(0, 0, {0: (tag,)})


@pytest.fixture(params=BACKENDS)
def store(request) -> PageStore:
    return make_page_store(request.param, 32)


class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == BACKENDS

    def test_unknown_backend_names_accepted_set(self):
        with pytest.raises(ConfigError, match="memory, sqlite, mmap"):
            page_store_class("redis")

    def test_entries_carry_persistence(self):
        assert not page_store_class("memory").persistent
        assert page_store_class("sqlite").persistent
        assert page_store_class("mmap").persistent

    def test_memory_backend_rejects_path(self, tmp_path):
        with pytest.raises(ConfigError, match="not file-backed"):
            make_page_store("memory", 8, tmp_path / "x.store")

    def test_system_config_validates_backend_name(self):
        from repro.core.config import SystemConfig

        assert SystemConfig(page_store="sqlite").page_store == "sqlite"
        with pytest.raises(ConfigError, match="unknown page-store backend"):
            SystemConfig(page_store="bogus")


class TestBackendContract:
    def test_roundtrip_replaces_and_raises(self, store):
        img = sample_image()
        store.put(3, img)
        assert store.get(3) == img
        store.put(3, image("replacement"))
        assert store.get(3) == image("replacement")
        with pytest.raises(PageNotFoundError):
            store.get(4)

    def test_peek_never_raises_on_empty(self, store):
        assert store.peek(5) is None
        store.put(5, image("x"))
        assert store.peek(5) == image("x")

    def test_peek_out_of_range_raises(self, store):
        for bad in (-1, 32, 999):
            with pytest.raises(OutOfRangeError):
                store.peek(bad)

    def test_put_out_of_range_raises(self, store):
        with pytest.raises(OutOfRangeError):
            store.put(32, image("x"))

    def test_delete_is_idempotent(self, store):
        store.put(1, image("x"))
        store.delete(1)
        store.delete(1)  # deleting an empty slot is a no-op, not an error
        assert 1 not in store
        assert store.peek(1) is None

    def test_contains_and_len(self, store):
        assert 2 not in store
        store.put(2, image("a"))
        store.put(9, image("b"))
        assert 2 in store and 9 in store
        assert len(store) == 2

    def test_occupied_is_ascending_and_stable(self, store):
        # Insertion order deliberately scrambled: the contract is that
        # every backend iterates in ascending LBA order, so recovery
        # tooling sees one order regardless of the storage engine.
        for lba in (9, 2, 17, 4):
            store.put(lba, image(f"v{lba}"))
        assert list(store.occupied()) == [2, 4, 9, 17]
        assert list(store.occupied()) == list(store.occupied())

    def test_snapshot_adopt_roundtrip(self, store):
        img = sample_image()
        store.put(0, img)
        store.put(7, image("s"))
        snap = store.snapshot_slots()
        other = make_page_store(store.backend_name, 32)
        other.adopt_slots(snap)
        assert other.snapshot_slots() == snap

    def test_adopt_slots_validates_lbas(self, store):
        store.put(1, image("keep"))
        with pytest.raises(OutOfRangeError, match="adopt_slots: lba 40"):
            store.adopt_slots({0: image("a"), 40: image("b")})
        # Validation happens before any mutation: the store is untouched.
        assert store.snapshot_slots() == {1: image("keep")}

    def test_clear_after_adopt(self, store):
        store.adopt_slots({0: image("a"), 1: image("b"), 31: image("c")})
        assert len(store) == 3
        store.clear()
        assert len(store) == 0
        assert list(store.occupied()) == []
        assert store.peek(0) is None

    def test_deepcopy_is_independent(self, store):
        store.put(3, sample_image())
        clone = copy.deepcopy(store)
        assert clone.snapshot_slots() == store.snapshot_slots()
        clone.put(4, image("only-in-clone"))
        assert 4 not in store

    def test_capacity_must_be_positive(self, store):
        with pytest.raises(OutOfRangeError):
            make_page_store(store.backend_name, 0)

    def test_obs_counters(self, store):
        OBS.enable()
        try:
            store.put(1, sample_image())
            store.get(1)
            store.peek(1)
            store.peek(2)  # empty peek must not count as a get
            flat = OBS.snapshot().as_flat()
        finally:
            OBS.disable()
        prefix = f"storage.backend.{store.backend_name}"
        assert flat[f"{prefix}.puts"] == 1
        assert flat[f"{prefix}.gets"] == 2
        if store.persistent:  # byte counts only exist where bytes exist
            assert flat[f"{prefix}.bytes_written"] > 0
            assert flat[f"{prefix}.bytes_read"] > 0


class TestBatchContract:
    """``put_many`` / ``peek_many``: a batch is one store call, and means
    exactly what the same sequence of single calls means."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=12
    ))
    @example(batch=[(4, 0), (9, 1), (4, 2)])  # a repeated LBA: the last one wins
    def test_put_many_equals_the_same_puts(self, backend, batch):
        items = [(lba, image(f"v{lba}-{tag}")) for lba, tag in batch]
        one_by_one = make_page_store(backend, 32)
        one_by_one.put(20, image("before"))
        for lba, img in items:
            one_by_one.put(lba, img)
        batched = make_page_store(backend, 32)
        batched.put(20, image("before"))
        batched.put_many(items)
        assert batched.snapshot_slots() == one_by_one.snapshot_slots()
        lbas = [lba for lba, _ in batch] + [20, 31]
        assert batched.peek_many(lbas) == [one_by_one.peek(lba) for lba in lbas]

    def test_peek_many_returns_none_for_empty_slots(self, store):
        store.put_many([(3, image("a")), (5, image("b"))])
        assert store.peek_many([5, 4, 3, 0, 5]) == [
            image("b"), None, image("a"), None, image("b")
        ]
        assert store.peek_many(range(6, 9)) == [None, None, None]

    @pytest.mark.parametrize("bad", [-1, 32, 999])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_an_out_of_range_lba_anywhere_writes_nothing(self, store, bad, where):
        store.put(1, image("keep"))
        items = [(0, image("a")), (2, image("b"))]
        items.insert(where, (bad, image("bad")))
        with pytest.raises(OutOfRangeError):
            store.put_many(items)
        assert store.snapshot_slots() == {1: image("keep")}
        with pytest.raises(OutOfRangeError):
            store.peek_many([0, bad, 1])

    def test_an_empty_batch_is_a_no_op(self, store):
        store.put(1, image("keep"))
        store.put_many([])
        assert store.peek_many([]) == []
        assert store.snapshot_slots() == {1: image("keep")}

    def test_obs_counts_every_page_of_a_batch(self, store):
        OBS.reset()  # other tests' stores counted under the same names
        OBS.enable()
        try:
            store.put_many([(1, sample_image()), (2, image("b")), (1, image("c"))])
            store.peek_many([1, 2, 3])  # the empty slot is not a get
            flat = OBS.snapshot().as_flat()
        finally:
            OBS.disable()
            OBS.reset()
        prefix = f"storage.backend.{store.backend_name}"
        assert flat[f"{prefix}.puts"] == 3
        assert flat[f"{prefix}.gets"] == 2

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_reopen_after_put_many(self, backend, tmp_path):
        path = tmp_path / f"batch.{backend}"
        store = make_page_store(backend, 64, path)
        store.put_many([(9, sample_image()), (2, image("b")), (40, image("c"))])
        store.put_many([(2, image("b2"))])
        store.flush()
        expected = store.snapshot_slots()
        del store
        reopened = make_page_store(backend, 64, path)
        assert reopened.snapshot_slots() == expected == {
            2: image("b2"), 9: sample_image(), 40: image("c")
        }

    def test_sqlite_batch_lands_whole_or_not_at_all(self, tmp_path, monkeypatch):
        path = tmp_path / "whole.sqlite"
        store = SqlitePageStore(16, path)
        store.put(1, image("keep"))
        rows = []

        class Failing:
            """A connection that fails the batch after its first row."""

            def __init__(self, conn):
                self.conn = conn

            def execute(self, *args):
                return self.conn.execute(*args)

            def executemany(self, sql, batch):
                for row in batch:
                    self.conn.execute(sql, row)
                    rows.append(row[0])
                    raise OSError("device gone")

        monkeypatch.setattr(store, "_conn", Failing(store._conn))
        with pytest.raises(OSError, match="device gone"):
            store.put_many([(2, image("a")), (3, image("b"))])
        monkeypatch.undo()
        assert rows == [2]  # the first row was inserted, then rolled back
        assert store.snapshot_slots() == {1: image("keep")}
        assert SqlitePageStore(16, path).snapshot_slots() == {1: image("keep")}


class TestPersistence:
    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_reopen_after_close(self, backend, tmp_path):
        path = tmp_path / f"vol.{backend}"
        img = sample_image()
        store = make_page_store(backend, 64, path)
        store.put(9, img)
        store.put(2, image("dropped"))
        store.put(9, img)  # overwrite with same
        store.delete(2)
        store.flush()
        del store
        reopened = make_page_store(backend, 64, path)
        assert reopened.snapshot_slots() == {9: img}

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_unowned_path_survives_gc(self, backend, tmp_path):
        path = tmp_path / f"keep.{backend}"
        store = make_page_store(backend, 8, path)
        store.put(0, image("x"))
        store.flush()
        del store
        assert path.exists()

    def test_mmap_reopen_ignores_torn_tail(self, tmp_path):
        path = tmp_path / "torn.pages"
        store = MmapPageStore(16, path)
        store.put(3, image("complete"))
        store.put(5, image("will-be-torn"))
        store.flush()
        del store
        # Chop bytes off the last record: a write the process died inside.
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 4)
        reopened = MmapPageStore(16, path)
        assert reopened.snapshot_slots() == {3: image("complete")}
        # The log stays appendable after the truncated garbage is dropped.
        reopened.put(5, image("rewritten"))
        assert reopened.get(5) == image("rewritten")

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_reopen_on_a_larger_store_fails_closed(self, backend, tmp_path):
        """A file holding an LBA past the capacity is not a torn tail: the
        reopen raises and truncates nothing (LBA 6 after LBA 90 is kept)."""
        path = tmp_path / f"big.{backend}"
        store = make_page_store(backend, 100, path)
        for lba in (5, 90, 6):
            store.put(lba, image(f"v{lba}"))
        store.flush()
        del store
        before = path.read_bytes()
        with pytest.raises(OutOfRangeError, match="lba 90 outside store of 50 pages"):
            make_page_store(backend, 50, path)
        assert path.read_bytes() == before
        reopened = make_page_store(backend, 100, path)
        assert list(reopened.occupied()) == [5, 6, 90]

    @pytest.mark.parametrize("damage", ["short-payload", "bad-magic"])
    def test_mmap_reopen_truncates_a_real_torn_tail(self, damage, tmp_path):
        path = tmp_path / "torn.pages"
        store = MmapPageStore(16, path)
        store.put_many([(3, image("complete")), (4, image("also"))])
        store.flush()
        del store
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            if damage == "short-payload":  # a header promising more than follows
                fh.write(MmapPageStore._RECORD.pack(MmapPageStore._MAGIC, 5, 100) + b"x")
            else:  # a record header whose magic is not ours
                fh.write(MmapPageStore._RECORD.pack(0xBAD, 99, 1) + b"x")
        reopened = MmapPageStore(16, path)
        assert reopened.snapshot_slots() == {3: image("complete"), 4: image("also")}
        assert path.stat().st_size == intact

    @pytest.mark.parametrize("backend", PERSISTENT)
    def test_an_irregular_page_is_a_storage_error_at_encode(self, backend):
        store = make_page_store(backend, 8)
        store.put(1, sample_image())
        rows = dict(sample_image().slots)
        nested = PageImage(2, 1, rows | {5: (1, (2, 3), 0.5, None)})
        mixed = PageImage(2, 1, rows | {5: (1, "row-five", "0.5", None)})
        for page in (nested, mixed):
            with pytest.raises(StorageError, match="not encodable"):
                store.put(2, page)
            with pytest.raises(StorageError, match="not encodable"):
                store.put(2, CacheSlotImage(position=0, dirty=True, image=page))
        assert store.snapshot_slots() == {1: sample_image()}  # nothing written

    def test_sqlite_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not-a-db.sqlite"
        path.write_bytes(b"this is not a sqlite file at all")
        import sqlite3

        with pytest.raises(sqlite3.DatabaseError):
            SqlitePageStore(8, path)


def rewrite_behind(store: PageStore, lba: int, blob: bytes) -> None:
    """Replace the bytes stored at ``lba`` without telling ``store``: the
    mmap record's payload in place (same length), or the sqlite row from a
    second connection."""
    if store.backend_name == "mmap":
        offset, length = store._index[lba]
        assert len(blob) == length
        with open(store.path, "r+b") as fh:
            fh.seek(offset)
            fh.write(blob)
    else:
        import sqlite3

        other = sqlite3.connect(store.path, isolation_level=None)
        other.execute("UPDATE pages SET data = ? WHERE lba = ?", (blob, lba))
        other.close()


def forgotten(put_and_forget) -> bool:
    """Whether the store lets go of an image once ``put_and_forget(image)``
    has written it and then deleted, cleared or overwritten it.  (An image
    is a tuple, which takes no weak reference: its references are counted.)"""
    img = sample_image()
    held = sys.getrefcount(img)
    put_and_forget(img)
    gc.collect()
    return sys.getrefcount(img) == held


@pytest.mark.parametrize("backend", PERSISTENT)
class TestRememberedWrites:
    """A persistent store answers a read of unchanged bytes with the object
    it was given; any other bytes are decoded and fail closed as before."""

    def test_a_hit_returns_the_written_object(self, backend):
        store = make_page_store(backend, 16)
        img, slot, batched = sample_image(), CacheSlotImage(4, True, sample_image(8)), image("b")
        store.put(1, img)
        store.put_many([(2, slot), (3, batched)])
        assert store.get(1) is img and store.peek(2) is slot and store.get(3) is batched
        found = store.peek_many([2, 1, 9, 3, 2])
        assert [a is b for a, b in zip(found, (slot, img, None, batched, slot))] == [True] * 5
        # The encoding a remembered write was compared against stays on its image.
        assert "_blob" in vars(img) and "_blob" in vars(slot.image)

    @pytest.mark.parametrize("read", ["get", "peek", "peek_many"])
    def test_bytes_changed_behind_the_store_are_decoded(self, backend, read):
        store = make_page_store(backend, 16)
        fetch = {
            "get": store.get, "peek": store.peek, "peek_many": lambda lba: store.peek_many([lba])[0]
        }[read]
        img, slot = sample_image(lsn=42), CacheSlotImage(4, False, sample_image(lsn=42))
        store.put(1, img)
        store.put(2, slot)
        # Well-formed bytes of the same length: the changed page comes back.
        rewrite_behind(store, 1, encode_storable(sample_image(lsn=43)))
        rewrite_behind(store, 2, encode_storable(slot._replace(dirty=True)))
        assert fetch(1) == sample_image(lsn=43) and fetch(1) is not img
        assert fetch(2) == slot._replace(dirty=True)
        # Malformed bytes: a bad page magic, a dirty byte of 2.
        blob = bytearray(encode_storable(img))
        blob[1] ^= 0xFF
        rewrite_behind(store, 1, bytes(blob))
        blob = bytearray(encode_storable(slot))
        blob[1 + 8] = 2
        rewrite_behind(store, 2, bytes(blob))
        with pytest.raises(StorageError, match="page magic"):
            fetch(1)
        with pytest.raises(StorageError, match="dirty byte"):
            fetch(2)

    def test_a_reopened_copied_or_forked_store_decodes(self, backend, tmp_path):
        path = tmp_path / f"vol.{backend}"
        store = make_page_store(backend, 16, path)
        img = sample_image()
        store.put(5, img)
        store.flush()
        copied = make_page_store(backend, 16)
        copied.put(5, img)
        copied.copy_from(store)
        for other in (make_page_store(backend, 16, path), copied, copy.deepcopy(store)):
            assert other.get(5) == img and other.get(5) is not img
        assert store.get(5) is img

    def test_delete_clear_and_an_overwrite_forget(self, backend):
        store = make_page_store(backend, 16)

        def deleted(img):
            store.put(1, img)
            store.delete(1)

        def cleared(img):
            store.put_many([(1, img), (2, image("other"))])
            store.clear()

        def overwritten(img):
            store.put(1, img)
            store.put(1, image("newer"))

        def installed(img):
            store.put(1, img)
            store.adopt_slots({1: sample_image()})

        def copied_over(img):
            store.put(1, img)
            store.copy_from(make_page_store(backend, 16))

        for forget in (deleted, cleared, overwritten, installed, copied_over):
            assert forgotten(forget), forget.__name__

    def test_adopt_slots_remembers_nothing(self, backend):
        store = make_page_store(backend, 16)
        snapshot = {lba: sample_image(lba) for lba in (0, 3, 15)}
        kept = snapshot[3]
        held = sys.getrefcount(kept)
        store.adopt_slots(snapshot)
        for lba, img in snapshot.items():
            assert store.get(lba) == img and store.get(lba) is not img
            assert "_blob" not in vars(img)  # the template's images hold no bytes
        del snapshot, img
        gc.collect()
        assert sys.getrefcount(kept) == held - 1  # only the snapshot's reference went


class TestCodec:
    def test_page_image_bytes_roundtrip(self):
        img = sample_image()
        assert PageImage.from_bytes(img.to_bytes()) == img
        # Page and PageImage share one on-media layout for equal contents.
        assert img.to_bytes() == img.to_page().to_bytes()

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            PageImage(2, 0, {}),  # an empty page: a header, no run
            PageImage(9, 5, {(k, "two"): (k, None) for k in range(3)}),
            CacheSlotImage(position=3, dirty=True, image=PageImage(4, 1, {})),
            PageImage(3, 8, {"key": (1.5, "é中"), "other": (-2.0, "")}),
            sample_image(),
            CacheSlotImage(position=12, dirty=True, image=sample_image()),
            CacheSlotImage(position=0, dirty=False, image=sample_image(1, 0)),
            _Superblock(front=3, rear_at_flush=99, segment_lbas=(10, 20, 30)),
            _Superblock(front=0, rear_at_flush=0, segment_lbas=()),
            _SegmentImage(
                first_position=5,
                entries=((5, 7, 42, True), (6, 8, 43, False)),
            ),
        ],
    )
    def test_storable_roundtrip(self, obj):
        decoded = decode_storable(encode_storable(obj))
        assert decoded == obj
        assert type(decoded) is type(obj) or obj is None

    def test_unencodable_object_raises(self):
        # Pages, cache slots, flash metadata and None: nothing else is stored.
        for obj in (object(), 12345, "a sentinel string", 3.25, (1, "two", None)):
            with pytest.raises(StorageError, match="cannot encode"):
                encode_storable(obj)

    def test_empty_blob_raises(self):
        with pytest.raises(StorageError):
            decode_storable(b"")

    def test_unknown_kind_tag_raises(self):
        with pytest.raises(StorageError, match="unknown storable kind"):
            decode_storable(bytes([250]))


class TestReplayParity:
    def test_identical_cell_across_backends(self):
        """The tentpole invariant: backends only hold bytes, so an
        identical cell produces bit-identical results on every backend."""
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.parallel import CellSpec, run_cells
        from repro.tpcc.scale import TINY

        results = {}
        for backend in BACKENDS:
            cfg = ExperimentConfig(
                scale=TINY, measure_transactions=300, page_store=backend
            )
            spec = CellSpec.from_config((backend,), cfg)
            results[backend] = run_cells([spec], jobs=1)[(backend,)]
        reference = dataclasses.replace(results["memory"], name="", obs=None)
        for backend in PERSISTENT:
            got = dataclasses.replace(results[backend], name="", obs=None)
            assert got == reference, f"{backend} diverges from memory"
        assert reference.tpmc > 0


class TestHardCrash:
    def test_hard_crash_restart_smoke(self, tmp_path):
        """Kill a real process, reopen its files, match the crash model."""
        state_dir = tmp_path / "crash-state"
        state_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "--scale", "tiny", "--page-store", "sqlite",
                "crash", "--json", "--state-dir", str(state_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        # What was survived: the process, not a power cut.
        assert report["durability"] == "process-death"
        assert report["mismatches"] == {}
        for role in ("disk", "flash"):
            assert report["survival"][role]["missing"] == 0
            assert report["survival"][role]["recovered"] >= report["survival"][role]["expected"]
        # FaCE's restart payoff: recovery reads come from surviving flash.
        assert report["hard"]["cache_survived"] is True
        assert report["hard"]["pages_from_flash"] > 0
        # The manifest survives for post-mortems.
        assert (state_dir / "manifest.json").exists()
        # The victim ran the cell ``run scenario=crash`` runs: the same
        # schedule reaches the same kill point, and the in-process crash
        # model restarts the same way (on the memory store).
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.hardcrash import discrete_report
        from repro.sim.parallel import CellSpec, run_cells
        from repro.tpcc.scale import TINY

        cell = ExperimentConfig(
            scale=TINY, scenario="crash", checkpoint_interval=2.0, warmup_max=50_000
        )
        (run,) = run_cells([CellSpec.from_config(("crash",), cell)]).values()
        assert report["executed_before_crash"] == run.transactions_before_crash
        assert report["checkpoints_before_crash"] == run.checkpoints_before_crash
        assert report["soft"] == discrete_report(run.report)

    def test_hard_crash_rejects_memory_backend(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--scale", "tiny", "crash"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "persistent" in proc.stderr

    def test_victim_requires_persistent_backend(self):
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.hardcrash import run_victim
        from repro.tpcc.scale import TINY

        cell = ExperimentConfig(scale=TINY, scenario="crash", checkpoint_interval=2.0)
        with pytest.raises(ConfigError, match="persistent"):
            run_victim(cell, "/nonexistent")

    def test_adopt_durable_restores_log_state(self):
        from repro.storage.hdd import DiskDevice
        from repro.storage.profiles import HDD_CHEETAH_15K
        from repro.wal.log import LogManager

        donor = LogManager(DiskDevice(HDD_CHEETAH_15K, 1024))
        donor.log_begin(1)
        donor.log_update(1, 10, 0, None, ("row",))
        donor.commit(1)
        records = donor.durable_records()

        fresh = LogManager(DiskDevice(HDD_CHEETAH_15K, 1024))
        fresh.adopt_durable(records, head_lba=donor._head_lba)
        assert fresh.durable_records() == records
        assert fresh.flushed_lsn == records[-1].lsn
        assert fresh.tail_length == 0
        # New appends continue the LSN sequence, not restart it.
        begin = fresh.log_begin(2)
        assert begin.lsn == records[-1].lsn + 1


def test_no_slots_reach_in_outside_storage():
    """Acceptance criterion: `._slots` is a storage-internal detail."""
    offenders = []
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        if "storage" in path.parts:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\._slots\b", line):
                offenders.append(f"{path.relative_to(ROOT)}:{lineno}")
    assert not offenders, f"private _slots reach-in: {offenders}"
