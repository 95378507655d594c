"""``ycsb`` registry entry: Zipf-skewed key-value point access.

A synthetic key-value workload in the workload registry
(:mod:`repro.workload.registry`), speaking the driver protocol every
engine layer speaks: ``run_one`` returns a
:class:`~repro.workload.registry.TxResult` and counts accumulate in a
:class:`~repro.workload.registry.WorkloadStats`, so YCSB cells flow through the
trace recorder, the replay fast path and the parallel sweep engine
exactly like TPC-C cells.

Every transaction batches ``ops_per_tx`` point operations: a Zipf-ranked
key lookup through the hash index, the row fetch, and (with probability
``update_fraction``) a read-modify-write.  All transactions report kind
``"ycsb"`` — the single headline kind, so ``tpmc`` in a
:class:`~repro.sim.runner.RunResult` reads as committed transactions per
simulated minute.

The ``write-churn`` preset is the Flashield-motivated configuration
(PAPERS.md): a write-heavy, moderately-skewed mix under which
write-minimising flash admission should beat on-entry caching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.tpcc.scale import ScaleProfile
from repro.workload.registry import (  # noqa: F401 - the knobs are re-exported
    YCSB_KNOBS,
    YCSB_PRESETS,
    TxResult,
    WorkloadStats,
)
from repro.workload.synthetic import KV_SCHEMA, ZipfGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dbms import SimulatedDBMS

#: Driver kind alphabet (headline kind first — see the registry docs).
YCSB_TX_KINDS = ("ycsb",)

def resolve_n_keys(scale: ScaleProfile, n_keys: int | None) -> int:
    """The effective table cardinality: explicit knob, else scale-derived.

    The scale-derived default is sized so the table dwarfs the scaled DRAM
    buffer (which bottoms out at 64 pages): a keyspace that fits in DRAM
    never evicts, so the flash cache under test would sit idle.
    """
    if n_keys is not None:
        if n_keys < 1:
            raise WorkloadError("n_keys must be >= 1")
        return n_keys
    return max(10_000, scale.customers * 250)


@dataclass
class KvDatabase:
    """Handle to a loaded key-value database (the ycsb loader's result)."""

    dbms: SimulatedDBMS
    scale: ScaleProfile
    n_keys: int


def create_ycsb_schema(
    dbms,
    scale: ScaleProfile,
    *,
    n_keys: int | None = None,
    **_ignored,
) -> None:
    """Create the KV table + primary hash index (catalog-probe friendly)."""
    keys = resolve_n_keys(scale, n_keys)
    dbms.create_table(KV_SCHEMA, expected_rows=keys)
    dbms.create_index("synthetic_kv_pk", "synthetic_kv", n_pages=max(1, keys // 300))


def load_ycsb(
    dbms: SimulatedDBMS,
    scale: ScaleProfile,
    seed: int,
    *,
    n_keys: int | None = None,
    **_ignored,
) -> KvDatabase:
    """Create schema and bulk-load the initial rows (untimed)."""
    from repro.tpcc.loader import load_keyed

    keys = resolve_n_keys(scale, n_keys)
    create_ycsb_schema(dbms, scale, n_keys=keys)
    dbms.begin_load()
    rows = [(k, f"payload-{k}", 0) for k in range(keys)]
    load_keyed(dbms, "synthetic_kv", "synthetic_kv_pk", rows, itemgetter(slice(1)))
    dbms.finish_load()
    return KvDatabase(dbms=dbms, scale=scale, n_keys=keys)


def rebuild_ycsb_handle(dbms: SimulatedDBMS, scale: ScaleProfile, state) -> KvDatabase:
    """Warm-fork hook: rebuild a handle onto an adopted DBMS.

    The KV workload keeps no mutable workload-side state beyond the
    tables themselves, so the handle is reconstructed from the catalog.
    """
    n_keys = dbms.tables["synthetic_kv"].info.row_count
    return KvDatabase(dbms=dbms, scale=scale, n_keys=n_keys)


@lru_cache(maxsize=2)
def _key_order(n_keys: int, seed: int) -> tuple[tuple[int, ...], tuple]:
    """A stream's rank -> key permutation (so hot keys scatter over pages, as
    in real stores) and its RNG state after the shuffle: built once per
    stream, not per cell, as a tuple no driver can change."""
    rng = random.Random(seed + 1)
    rank_to_key = list(range(n_keys))
    rng.shuffle(rank_to_key)
    return tuple(rank_to_key), rng.getstate()


class YcsbDriver:
    """Drives one simulated DBMS with the Zipf-skewed point-access mix."""

    def __init__(
        self,
        database: KvDatabase,
        seed: int = 7,
        *,
        n_keys: int | None = None,
        zipf_s: float = 0.99,
        update_fraction: float = 0.3,
        ops_per_tx: int = 8,
    ) -> None:
        if not 0.0 <= update_fraction <= 1.0:
            raise WorkloadError("update_fraction must be within [0, 1]")
        if ops_per_tx < 1:
            raise WorkloadError("ops_per_tx must be >= 1")
        self.database = database
        self.dbms = database.dbms
        self.update_fraction = update_fraction
        self.ops_per_tx = ops_per_tx
        self._zipf = ZipfGenerator(database.n_keys, zipf_s, seed)
        self._rank_to_key, rng_state = _key_order(database.n_keys, seed)
        self._rng = random.Random()
        self._rng.setstate(rng_state)
        self.stats = WorkloadStats(headline_kind=YCSB_TX_KINDS[0])

    def _next_key(self) -> int:
        return self._rank_to_key[self._zipf.sample()]

    def run_one(self, kind: str | None = None) -> TxResult:
        """Execute one transaction of ``ops_per_tx`` point operations."""
        dbms = self.dbms
        tx = dbms.begin()
        for _ in range(self.ops_per_tx):
            key = self._next_key()
            rid = dbms.index_lookup("synthetic_kv_pk", (key,))
            row = dbms.fetch_row("synthetic_kv", rid)
            if self._rng.random() < self.update_fraction:
                dbms.update_row(
                    tx, "synthetic_kv", rid, (row[0], row[1], row[2] + 1)
                )
        dbms.commit(tx)
        result = TxResult(kind=YCSB_TX_KINDS[0], committed=True)
        self.stats.record(result)
        return result

    def run(self, n_transactions: int, checkpointer=None) -> WorkloadStats:
        """Execute ``n_transactions``; optionally tick a checkpointer."""
        if n_transactions < 0:
            raise WorkloadError("n_transactions must be >= 0")
        for _ in range(n_transactions):
            self.run_one()
            if checkpointer is not None:
                checkpointer()
        return self.stats
