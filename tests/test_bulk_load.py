"""The bulk loader builds the same database a row-at-a-time load built.

``SimulatedDBMS.load_rows`` / ``load_index`` fill a page's slots in one
call where the loaders once inserted row by row.  The loaded database must
not move by a bit: every page (id, LSN and slot items in insertion order),
every table's ``row_count`` and ``wrapped``, and the workload's fork state
are hashed here and compared with the digests of the row-at-a-time
loaders, computed before they were replaced.
"""

from __future__ import annotations

import hashlib
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.config import CachePolicy, scaled_reference_config
from repro.core.dbms import SimulatedDBMS
from repro.db.index import stable_key_hash
from repro.tpcc.scale import BENCH, TINY
from repro.workload.registry import (
    WorkloadSpec,
    estimate_workload_pages,
    get_workload_entry,
    load_workload,
)
from tests.conftest import KV_SCHEMA, tiny_config

#: (workload, scale, seed) -> digest of the row-at-a-time load.
EXPECTED = {
    ("tpcc", TINY, 1): "e42a68ff6914eeb15436e945fe789bf9bd6f64cc5fdc826d9fa5b3f4986695cc",
    ("tpcc", TINY, 42): "19d583784eed27b1f58149a8c11e40373345b745a1e75417f9b0431d8080a539",
    ("ycsb", TINY, 1): "75c4bb45dde1108c567d2077d6b4d49d1e83f79173e91190600a53a7c0c831f2",
    ("ycsb", TINY, 42): "75c4bb45dde1108c567d2077d6b4d49d1e83f79173e91190600a53a7c0c831f2",
    ("tpch-scan", TINY, 1): "084ab8f39c521d4ede6beb5eafcbddd5c3a4a63136980b6199c6048189d84a70",
    ("tpch-scan", TINY, 42): "71939a49a19e32d5ce54a3e87c4760c00d4e02325c8f0fb3893fb102c048de9f",
    ("tpcc", BENCH, 7): "ea6d10e4bd2a2e3fed7b73e17931a4435904c9e49f95ba85e705ee0f3bdb567f",
}


def load_digest(workload: str, scale, seed: int) -> str:
    """SHA-256 over a fresh load: pages by id, then tables, then fork state."""
    spec = WorkloadSpec(workload)
    config = scaled_reference_config(
        estimate_workload_pages(spec, scale), policy=CachePolicy.NONE
    )
    dbms = SimulatedDBMS(config)
    database = load_workload(dbms, scale, seed, spec)
    digest = hashlib.sha256()
    slots = dbms.disk.store.snapshot_slots()
    for lba in sorted(slots):
        image = slots[lba]
        items = list(image.slots.items())
        digest.update(repr((lba, image.page_id, image.lsn, items)).encode())
    for name, heap in sorted(dbms.tables.items()):
        digest.update(repr((name, heap.info.row_count, heap.wrapped)).encode())
    # TPC-C: the undelivered-order queues and the name span; else None.
    state = get_workload_entry(spec.name).fork_state(database)
    digest.update(repr(state).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "workload, scale, seed",
    list(EXPECTED),
    ids=[f"{w}-{'bench' if s is BENCH else 'tiny'}-{seed}" for w, s, seed in EXPECTED],
)
def test_load_is_bit_identical_to_the_row_at_a_time_load(workload, scale, seed):
    assert load_digest(workload, scale, seed) == EXPECTED[(workload, scale, seed)]


def _reference_hash(key: tuple) -> int:
    """``stable_key_hash`` as it was before its exact-int fast path."""
    h = 2166136261
    for part in key:
        if isinstance(part, int):
            v = part & 0xFFFFFFFF
        elif isinstance(part, str):
            v = zlib.crc32(part.encode("utf-8"))
        else:
            v = zlib.crc32(repr(part).encode("utf-8"))
        h = ((h ^ v) * 16777619) & 0xFFFFFFFF
    return h


_parts = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.text(max_size=8),
    st.floats(allow_nan=False),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(key=st.lists(_parts, max_size=4).map(tuple))
@example(key=(-1,))
@example(key=(2**32 + 5,))
@example(key=(True,))
@example(key=(1, "ABLE", 3))
@example(key=())
def test_stable_key_hash_matches_the_reference(key):
    assert stable_key_hash(key) == _reference_hash(key)


# -- batched bucket placement -------------------------------------------------

_ints = st.integers(min_value=-(2**40), max_value=2**40)
#: The key shapes the three loaders build: one int (YCSB, ITEM, TPC-H),
#: int tuples (TPC-C's composite keys), and keys with str or bool parts
#: (TPC-C's by-name index), plus parts no loader builds.
_index_keys = st.one_of(
    _ints.map(lambda k: (k,)),
    st.lists(_ints, min_size=2, max_size=4).map(tuple),
    st.lists(st.one_of(_ints, st.booleans(), st.text(max_size=6)), max_size=4).map(tuple),
    st.lists(_parts, max_size=3).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(keys=st.lists(_index_keys, max_size=60), n_pages=st.integers(1, 13))
@example(keys=[(3,), (3, "ABLE"), (True,), (1,), (2, 7, 9), (), (3,)], n_pages=5)
def test_load_index_places_every_key_where_bucket_page_does(keys, n_pages):
    """``load_index`` hashes all-int keys inline: every key still lands in
    ``HashIndex.bucket_page(key)``, in insertion order, last rid winning."""
    dbms = SimulatedDBMS(tiny_config())
    dbms.create_table(KV_SCHEMA, expected_rows=8)
    index = dbms.create_index("kv_pk", "kv", n_pages=n_pages)
    entries = [(key, (0, i)) for i, key in enumerate(keys)]
    dbms.begin_load()
    dbms.load_index("kv_pk", iter(entries))
    dbms.finish_load()
    expected: dict[int, dict] = {}
    for key, rid in entries:
        expected.setdefault(index.bucket_page(key), {})[key] = rid
    placed = dbms.disk.store.snapshot_slots()
    assert {lba: list(image.slots.items()) for lba, image in placed.items()} == {
        lba: list(slots.items()) for lba, slots in expected.items()
    }
