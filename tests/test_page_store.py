"""Pluggable page-store backends: interface contract, codec, parity, crash.

Every test in ``TestBackendContract`` runs against all registered backends
— the contract is the point.  The parity test pins the tentpole claim:
backend choice never changes simulation results, because the device model
owns all simulated time and backends only hold bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from repro.db.page import Page, PageImage
from repro.errors import ConfigError, OutOfRangeError, PageNotFoundError, StorageError
from repro.flashcache.metadata import CacheSlotImage, _SegmentImage, _Superblock
from repro.obs import OBS
from repro.storage import (
    MemoryPageStore,
    MmapPageStore,
    PageStore,
    SqlitePageStore,
    available_backends,
    decode_storable,
    encode_storable,
    get_backend_entry,
    make_page_store,
)

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
            get_backend_entry("redis")

    def test_entries_carry_persistence(self):
        assert not get_backend_entry("memory").persistent
        assert get_backend_entry("sqlite").persistent
        assert get_backend_entry("mmap").persistent

    def test_memory_backend_rejects_path(self, tmp_path):
        with pytest.raises(ConfigError, match="not file-backed"):
            make_page_store("memory", 8, tmp_path / "x.store")

    def test_base_class_instantiation_builds_memory(self):
        # Historical call sites do PageStore(n) and expect the dict store.
        store = PageStore(8)
        assert type(store) is MemoryPageStore
        assert store.backend_name == "memory"
        assert not store.persistent

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
                "crash", "--hard", "--json", "--state-dir", str(state_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["mismatches"] == {}
        for role in ("disk", "flash"):
            assert report["survival"][role]["missing"] == 0
            assert report["survival"][role]["recovered"] >= report["survival"][role]["expected"]
        # FaCE's restart payoff: recovery reads come from surviving flash.
        assert report["hard"]["cache_survived"] is True
        assert report["hard"]["pages_from_flash"] > 0
        # The manifest survives for post-mortems.
        assert (state_dir / "manifest.json").exists()

    def test_hard_crash_rejects_memory_backend(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--scale", "tiny", "crash", "--hard"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "persistent" in proc.stderr

    def test_victim_requires_persistent_backend(self):
        from repro.sim.hardcrash import run_victim
        from repro.workload.registry import workload_spec

        with pytest.raises(ConfigError, match="persistent"):
            run_victim(
                state_dir="/nonexistent",
                backend="memory",
                scale_name="tiny",
                seed=1,
                workload=workload_spec("tpcc", {}),
                policy=None,
                cache_fraction=0.12,
                checkpoint_interval=2.0,
                crash_point=0.5,
            )

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
