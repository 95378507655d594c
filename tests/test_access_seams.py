"""The flattened access path still passes every access through its seams.

``SimulatedDBMS.read_page`` does the buffer look-up itself, the row and
index reads reach their page through it, and the logged update takes its
frame, full-page-write decision and WAL record in two frames.  What must
not change is *who sees each access*: the traced benchmark pass wraps
``read_page`` / ``update_slot_tx`` / ``BufferPool.lookup`` /
``LogManager.log_update`` at class level, and the trace recorder
(``RecordingDBMS``) overrides ``read_page`` and ``_apply_logged_update``.
These tests count through class-level wrappers of the same kind, pin the
recorded boundary stream, and check the index probe against the hash.
"""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.buffer.pool import BufferPool
from repro.core.config import CachePolicy
from repro.core.dbms import SimulatedDBMS
from repro.db.index import stable_key_hash
from repro.sim.experiment import ExperimentConfig
from repro.sim.replay import TraceRecorder
from repro.sim.runner import ExperimentRunner
from repro.sim.trace import boundary_checksum
from repro.tpcc.scale import TINY
from repro.wal.log import LogManager
from repro.wal.records import UpdateRecord
from tests.conftest import kv_dbms_with

#: ``boundary_checksum`` of the TINY TPC-C trace, seed 42, 300 transactions,
#: as recorded before the access path was flattened.
TINY_TRACE_CRC32 = 1324631301


def _count_calls(monkeypatch, counts: Counter, owner: type, name: str) -> None:
    original = vars(owner)[name]

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_the_seams_see_every_access(monkeypatch):
    counts: Counter = Counter()
    for owner, name in (
        (SimulatedDBMS, "read_page"),
        (SimulatedDBMS, "_get_frame"),
        (SimulatedDBMS, "update_slot_tx"),
        (SimulatedDBMS, "_apply_logged_update"),
        (BufferPool, "lookup"),
        (LogManager, "log_update"),
    ):
        _count_calls(monkeypatch, counts, owner, name)
    # Compensating updates an abort logs: its LSNs minus the abort record.
    real_abort = SimulatedDBMS.abort

    def abort(dbms, tx):
        before = dbms.log._next_lsn
        real_abort(dbms, tx)
        counts["compensations"] += dbms.log._next_lsn - before - 1

    monkeypatch.setattr(SimulatedDBMS, "abort", abort)

    config = ExperimentConfig(scale=TINY, seed=42, policy="face+gsc").system_config()
    runner = ExperimentRunner(config, TINY, seed=42)
    runner.warm_up(100, 100)
    dbms = runner.dbms
    first_lsn = dbms.log._next_lsn
    counts.clear()
    for _ in range(300):
        runner.driver.run_one()  # no checkpoint: the log keeps every record

    stats = dbms.buffer.stats
    assert stats.misses > 0 and counts["update_slot_tx"] > 1000
    accesses = counts["read_page"] + counts["_get_frame"]
    assert accesses == stats.hits + stats.misses == counts["lookup"]
    appended = sum(
        type(record) is UpdateRecord and record.lsn >= first_lsn
        for record in dbms.log._durable + dbms.log._tail
    )
    assert counts["_get_frame"] == counts["_apply_logged_update"] == counts["log_update"]
    assert counts["log_update"] == appended
    assert counts["update_slot_tx"] == appended - counts["compensations"]


def test_the_recorded_boundary_stream_is_unchanged():
    trace = TraceRecorder(TINY, 42, use_cache=False).ensure(300)
    assert trace.n_transactions == 300
    assert boundary_checksum(trace.ops, trace.args) == TINY_TRACE_CRC32


_parts = st.one_of(st.integers(-(2**40), 2**40), st.booleans(), st.text(max_size=4))
_keys = st.lists(_parts, min_size=1, max_size=3).map(tuple)


def _bool_twin(key: tuple) -> tuple:
    """``key`` with every 0/1 int spelled ``False``/``True``: an equal key."""
    return tuple(bool(p) if type(p) is int and p in (0, 1) else p for p in key)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(_keys, min_size=1, max_size=12))
@example(keys=[(1,), (7, "x"), (2, 1, 0)])
def test_index_lookup_agrees_with_stable_key_hash(keys):
    dbms = kv_dbms_with(CachePolicy.FACE, n_keys=64)
    index = dbms.indexes["kv_pk"]
    info = index.info
    written = {}
    tx = dbms.begin()
    for i, key in enumerate(keys):
        dbms.index_insert(tx, "kv_pk", key, (i, i % 7))
        written[key] = (i, i % 7)
    dbms.commit(tx)
    for key in keys + [_bool_twin(key) for key in keys]:
        page_id = info.first_page + stable_key_hash(key) % info.n_pages
        assert index.bucket_page(key) == page_id
        assert dbms.index_lookup("kv_pk", key) == written[key]
        assert dbms.read_page(page_id).get(key) == written[key]
