"""Trace-replay fast path: record the logical page stream once, replay it
against any system configuration.

The sweep grids behind Tables 2–4 run the *same* TPC-C workload over and
over, varying only system knobs — cache policy, cache size, devices,
checkpoint interval.  None of those knobs can change what the workload
*does*: the driver's RNG stream, the rows it reads and writes, and
therefore the sequence of logical page accesses and slot updates crossing
into the storage engine depend only on ``(scale, seed)``.  Caching, WAL and
device timing are content-transparent — a page's slots evolve identically
whether it was served from DRAM, flash or disk.

So the engine records that *boundary stream* once per (scale, seed,
workload) — any registered workload (:mod:`repro.workload.registry`)
produces one, since a trace is just the logical page stream above the
buffer pool:

``BEGIN | READ(page) | UPDATE(page, payload_bytes) | COMMIT | ABORT | TXEND``

and replays it against a real :class:`~repro.core.dbms.SimulatedDBMS` —
real buffer pool, flash-cache policy, WAL and device models — skipping the
catalog, heap, index and TPC-C tuple logic that dominates full-execution
cost.  Replayed results are **bit-identical** to full execution because
every timed component is driven through the same methods in the same
order:

* ``READ`` performs the full :meth:`_get_frame` path (CPU charge, DRAM
  lookup, flash/disk fetch, eviction with the WAL rule);
* ``UPDATE`` appends a :class:`~repro.wal.records.UpdateRecord` whose
  byte size was measured at record time — same LSN sequence, same tail
  bytes, same force page counts, same full-page-write decisions — without
  re-walking row images (the hottest computation in a full run);
* replayed pages carry headers (id + pageLSN) but no row contents; nothing
  below the boundary ever reads slots;
* a transaction's compensating (undo) updates are recorded as ordinary
  ``UPDATE`` events before its ``ABORT``, so replaying the abort against an
  empty undo list reproduces exactly the logged work;
* checkpoints are *not* part of the trace — they fire from the replayed
  system's own simulated clock, which is itself bit-identical.

Recording runs the real workload logic against a plain page dict (no
buffer, no devices, no WAL — none of them can influence the stream), so it
costs well under a full cell; the trace is also persisted to an on-disk
cache (`REPRO_TRACE_CACHE`) and **self-validated** on reuse by re-recording
a fresh prefix and comparing event-for-event, so a stale trace from an
older code version can never silently corrupt results.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from array import array
from pathlib import Path
from typing import Any

from repro.buffer.replacement import LruPolicy
from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.dbms import SimulatedDBMS, Transaction
from repro.db.page import Page
from repro.errors import ConfigError
from repro.obs import OBS
from repro.sim.metrics import ThroughputSeries
from repro.sim.runner import RunResult, cache_populated, summarise_run
from repro.sim.trace import (
    OP_ABORT,
    OP_BEGIN,
    OP_COMMIT,
    OP_READ,
    OP_READ_DUP,
    OP_TXEND,
    OP_UPDATE,
    PAYLOAD_BITS as _PAYLOAD_BITS,
    PAYLOAD_MASK as _PAYLOAD_MASK,
    boundary_checksum,
    decode_boundary,
    encode_boundary,
    raw_boundary_bytes,
)
from repro.errors import SharedTraceExhausted, TraceCodecError
from repro.sim.parallel import _execute_cell
from repro.sim.warmstate import (
    WarmFork,
    fork_database,
    fork_dbms,
    get_warm_fork,
    put_warm_fork,
    warm_fork_enabled,
)
from repro.storage.profiles import PAGE_SIZE
from repro.tpcc.driver import _MIX, WorkloadStats
from repro.tpcc.scale import ScaleProfile
from repro.workload.registry import (
    TPCC_SPEC,
    WorkloadSpec,
    estimate_workload_pages,
    get_workload_entry,
)
from repro.wal.records import (
    BASE_RECORD_BYTES,
    UpdateRecord,
    update_payload_bytes,
)

# -- event alphabet ----------------------------------------------------------
#
# The opcode constants (OP_BEGIN .. OP_READ_DUP) and the UPDATE operand
# packing (page_id << PAYLOAD_BITS | payload) are defined next to the wire
# format in :mod:`repro.sim.trace` and re-exported here.  OP_READ_DUP is a
# re-read of the page the immediately preceding event read (18% of all
# reads in TPC-C — think index descent then heap fetch); it carries no
# operand, and replays as a guaranteed DRAM hit on the MRU frame: no event
# of any kind separates it from the read that made the page resident.

#: TPC-C transaction kinds in mix order — the *default* kind alphabet.
#: ``TXEND`` packs (kind_index << 1) | committed, where the index is into
#: the recording workload's own alphabet (``WorkloadEntry.tx_kinds``,
#: headline kind first); recorders carry theirs as ``.tx_kinds``.
TX_KINDS = tuple(kind for kind, _ in _MIX)

#: Bump when the trace encoding changes; cached files of other versions are
#: ignored.  v3 switched the on-disk body to the compressed boundary codec
#: (:mod:`repro.sim.trace`) with a CRC-32 of the raw arrays in the header.
#: v4 added the workload token to the cache key and header: traces of
#: different workloads at the same (scale, seed) are different streams.
TRACE_FORMAT_VERSION = 4

#: Fresh transactions re-recorded to validate a cached trace against the
#: current code (RNG stream, schema, workload logic).  Large enough that
#: every transaction kind in the mix appears with overwhelming probability.
VALIDATION_TRANSACTIONS = 128


class BoundaryTrace:
    """The recorded event stream, stored as two flat arrays.

    ``ops`` holds one opcode byte per event; ``args`` holds one signed
    64-bit operand per event *that has one* (``READ``, ``UPDATE``,
    ``TXEND`` — ``READ_DUP`` carries none).  Array storage keeps a
    multi-million-event trace to a few bytes per event and makes the
    replay loop a tight index walk.
    """

    __slots__ = ("ops", "args", "n_transactions")

    def __init__(self) -> None:
        self.ops = array("B")
        self.args = array("q")
        self.n_transactions = 0

    def __len__(self) -> int:
        return len(self.ops)


class RecordingDBMS(SimulatedDBMS):
    """A storage engine that records the boundary stream instead of timing it.

    Pages live in a plain ``{page_id: Page}`` dict, thawed lazily from the
    loaded disk image.  There are no evictions, no WAL appends and no
    device charges — nothing below the boundary can influence which pages
    the workload touches or what it writes, so skipping all of it leaves
    the recorded stream exactly what a full run would produce.
    """

    def __init__(self, config: SystemConfig, trace: BoundaryTrace) -> None:
        super().__init__(config)
        self._trace = trace
        self._live_pages: dict[int, Any] = {}
        # Page id of the previous event iff that event was a read; lets
        # back-to-back re-reads compress to OP_READ_DUP.  Every non-read
        # event resets it, which is what makes the DUP replay contract
        # ("nothing happened since the page became resident and MRU") hold.
        self._last_read = -1

    def _recorded_page(self, page_id: int):
        page = self._live_pages.get(page_id)
        if page is None:
            stored = self.disk.store.peek(page_id)
            page = stored.to_page() if stored is not None else Page(page_id)
            self._live_pages[page_id] = page
        return page

    # -- recorded data path -------------------------------------------------

    def read_page(self, page_id: int):
        trace = self._trace
        if page_id == self._last_read:
            trace.ops.append(OP_READ_DUP)
        else:
            trace.ops.append(OP_READ)
            trace.args.append(page_id)
            self._last_read = page_id
        return self._recorded_page(page_id)

    def _get_frame(self, page_id: int):  # pragma: no cover - invariant guard
        raise NotImplementedError(
            "RecordingDBMS bypasses the buffer pool; the workload must reach "
            "pages via read_page/update_slot_tx only"
        )

    def _apply_logged_update(self, tx: Transaction, page_id: int, slot, after):
        page = self._recorded_page(page_id)
        before = page.get(slot)
        payload = update_payload_bytes(slot, before, after)
        if payload > _PAYLOAD_MASK:
            raise ConfigError(
                f"update payload of {payload} bytes exceeds the trace "
                f"encoding limit ({_PAYLOAD_MASK})"
            )
        trace = self._trace
        trace.ops.append(OP_UPDATE)
        trace.args.append((page_id << _PAYLOAD_BITS) | payload)
        self._last_read = -1
        if after is None:
            page.delete(slot, 0)
        else:
            page.put(slot, after, 0)
        return UpdateRecord(
            0, tx.txid, page_id, slot, before, after, payload_bytes=payload
        )

    # -- recorded transaction lifecycle --------------------------------------

    def begin(self) -> Transaction:
        tx = Transaction(txid=next(self._txid_counter))
        self._trace.ops.append(OP_BEGIN)
        self._last_read = -1
        self._active[tx.txid] = tx
        return tx

    def commit(self, tx: Transaction) -> None:
        tx._check_active()
        self._trace.ops.append(OP_COMMIT)
        self._last_read = -1
        self._finish(tx)
        self.committed += 1

    def abort(self, tx: Transaction) -> None:
        tx._check_active()
        # Compensating updates enter the trace as ordinary UPDATE events, in
        # undo order; replay then sees the abort itself with nothing left to
        # undo — exactly the logged work of a full run.
        for record in reversed(tx.undo):
            self._apply_logged_update(tx, record.page_id, record.slot, record.before)
        self._trace.ops.append(OP_ABORT)
        self._last_read = -1
        self._finish(tx)
        self.aborted += 1


# -- trace cache -------------------------------------------------------------


def trace_cache_dir() -> Path | None:
    """Directory for persisted traces, or ``None`` when caching is off.

    Controlled by ``REPRO_TRACE_CACHE``: unset uses a shared directory under
    the system temp dir; ``0``/``off``/empty disables persistence; any other
    value is used as the directory path.
    """
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env is not None:
        if env.strip().lower() in {"", "0", "off", "no"}:
            return None
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-trace-cache"


def _cache_key(
    scale: ScaleProfile, seed: int, workload_token: str = "tpcc"
) -> str:
    import hashlib

    identity = f"{scale!r}|{seed}|{workload_token}"
    digest = hashlib.sha256(identity.encode()).hexdigest()[:16]
    return f"trace-v{TRACE_FORMAT_VERSION}-{digest}.bin"


def _save_trace(
    path: Path,
    scale: ScaleProfile,
    seed: int,
    trace: BoundaryTrace,
    workload_token: str = "tpcc",
) -> None:
    body = encode_boundary(trace.ops, trace.args)
    header = json.dumps(
        {
            "version": TRACE_FORMAT_VERSION,
            "scale": repr(scale),
            "seed": seed,
            "workload": workload_token,
            "n_transactions": trace.n_transactions,
            "n_ops": len(trace.ops),
            "n_args": len(trace.args),
            "crc32": boundary_checksum(trace.ops, trace.args),
            "raw_bytes": raw_boundary_bytes(trace.ops, trace.args),
            "body_bytes": len(body),
        }
    ).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(body)
    os.replace(tmp, path)


def _load_trace(
    path: Path,
    scale: ScaleProfile,
    seed: int,
    workload_token: str = "tpcc",
) -> BoundaryTrace | None:
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            if (
                header.get("version") != TRACE_FORMAT_VERSION
                or header.get("scale") != repr(scale)
                or header.get("seed") != seed
                # A trace of another workload at the same (scale, seed) is
                # a different stream; treating it as absent fails closed
                # into a fresh recording.
                or header.get("workload") != workload_token
            ):
                return None
            ops, args = decode_boundary(fh.read())
            trace = BoundaryTrace()
            trace.ops, trace.args = ops, args
            # Corruption detection: the decoded arrays must match the saved
            # counts *and* checksum bit-for-bit, else the file is treated as
            # absent (the recorder then records afresh).
            if (
                len(ops) != header["n_ops"]
                or len(args) != header["n_args"]
                or boundary_checksum(ops, args) != header.get("crc32")
            ):
                return None
            trace.n_transactions = header["n_transactions"]
            return trace
    except (OSError, ValueError, KeyError, TraceCodecError):
        return None


def persisted_trace_stats(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> dict[str, int] | None:
    """Header sizes of the persisted trace for ``(scale, seed, workload)``.

    Returns ``{"raw_bytes", "body_bytes", "file_bytes", "n_transactions"}``
    without decoding the body — enough for the benchmark recorder and the
    CI gate to assert the compression ratio of what is actually on disk.
    """
    directory = trace_cache_dir()
    if directory is None:
        return None
    token = (workload or TPCC_SPEC).token
    path = directory / _cache_key(scale, seed, token)
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            return {
                "raw_bytes": int(header["raw_bytes"]),
                "body_bytes": int(header["body_bytes"]),
                "file_bytes": path.stat().st_size,
                "n_transactions": int(header["n_transactions"]),
            }
    except (OSError, ValueError, KeyError):
        return None


# -- cache housekeeping ------------------------------------------------------


def _read_trace_header(path: Path) -> dict[str, Any] | None:
    """First (JSON) line of a persisted trace file, or None if unreadable."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
    except (OSError, ValueError):
        return None
    return header if isinstance(header, dict) else None


def list_cached_traces() -> list[dict[str, Any]]:
    """Every persisted trace in the cache directory, oldest first.

    Filenames are opaque hashes, so the listing comes from each file's
    header line: scale repr (parsed back into ``scale_profile`` when it
    round-trips), seed, transaction count and sizes.  Unparseable files
    are listed too (``scale_profile`` None) so ``prune``/``rm --all`` can
    still reclaim them.  Used by ``python -m repro trace ls``.
    """
    from repro.tpcc.scale import parse_scale

    directory = trace_cache_dir()
    if directory is None or not directory.is_dir():
        return []
    entries: list[dict[str, Any]] = []
    now = time.time()
    for path in directory.glob("trace-*.bin"):
        try:
            stat = path.stat()
        except OSError:
            continue
        header = _read_trace_header(path) or {}
        scale_repr = header.get("scale")
        entries.append(
            {
                "path": str(path),
                "file": path.name,
                "file_bytes": stat.st_size,
                "age_seconds": max(0.0, now - stat.st_mtime),
                "mtime": stat.st_mtime,
                "version": header.get("version"),
                "scale": scale_repr,
                "scale_profile": (
                    parse_scale(scale_repr) if isinstance(scale_repr, str) else None
                ),
                "seed": header.get("seed"),
                "workload": header.get("workload"),
                "n_transactions": header.get("n_transactions"),
                "raw_bytes": header.get("raw_bytes"),
                "body_bytes": header.get("body_bytes"),
            }
        )
    entries.sort(key=lambda entry: (entry["mtime"], entry["file"]))
    return entries


def remove_cached_traces(
    scale: ScaleProfile | None = None, seed: int | None = None
) -> list[str]:
    """Delete matching persisted traces; returns the removed file names.

    ``scale``/``seed`` filter the match (``None`` matches everything, so
    calling with neither removes the whole cache).  Files whose headers
    cannot be parsed match only unfiltered removals.
    """
    removed: list[str] = []
    for entry in list_cached_traces():
        if scale is not None and entry["scale_profile"] != scale:
            continue
        if seed is not None and entry["seed"] != seed:
            continue
        try:
            os.remove(entry["path"])
        except OSError:
            continue
        removed.append(entry["file"])
    return removed


def prune_trace_cache(
    max_bytes: int | None = None, max_age_seconds: float | None = None
) -> dict[str, Any]:
    """Bound the trace cache by size and/or age (oldest removed first).

    The cache directory otherwise grows without bound — every
    ``(scale, seed)`` and format version ever recorded leaves a file.
    Age-expired files go first; then, while the directory exceeds
    ``max_bytes``, the oldest remaining files are removed.  Returns
    ``{"removed": [names], "kept": n, "kept_bytes": total}``.
    """
    entries = list_cached_traces()
    removed: list[str] = []

    def _remove(entry: dict[str, Any]) -> None:
        try:
            os.remove(entry["path"])
        except OSError:
            return
        removed.append(entry["file"])

    kept = []
    for entry in entries:
        if max_age_seconds is not None and entry["age_seconds"] > max_age_seconds:
            _remove(entry)
        else:
            kept.append(entry)
    if max_bytes is not None:
        total = sum(entry["file_bytes"] for entry in kept)
        while kept and total > max_bytes:
            entry = kept.pop(0)  # oldest first
            total -= entry["file_bytes"]
            _remove(entry)
    return {
        "removed": removed,
        "kept": len(kept),
        "kept_bytes": sum(entry["file_bytes"] for entry in kept),
    }


# -- recorder ---------------------------------------------------------------


class TraceRecorder:
    """Records (and incrementally extends) the boundary trace for one
    (scale, seed, workload), serving it to any number of replays.

    The live recorder extends its trace on demand — the trace only ever
    grows to the longest warm-up + measurement any replay actually needs.
    A persisted trace, once validated against a freshly recorded prefix,
    short-circuits recording entirely for lengths it covers.

    The workload comes from the registry
    (:mod:`repro.workload.registry`): its loader populates the recording
    store, its driver produces the boundary stream, and its kind alphabet
    (``tx_kinds``, headline kind first) defines the ``TXEND`` encoding
    replays decode with.
    """

    def __init__(
        self,
        scale: ScaleProfile,
        seed: int,
        use_cache: bool | None = None,
        workload: WorkloadSpec | None = None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.workload = TPCC_SPEC if workload is None else workload
        entry = get_workload_entry(self.workload.name)
        self.tx_kinds = entry.tx_kinds
        self._kind_index = {kind: i for i, kind in enumerate(entry.tx_kinds)}
        self.trace = BoundaryTrace()
        config = scaled_reference_config(
            estimate_workload_pages(self.workload, scale), policy=CachePolicy.NONE
        )
        self._dbms = RecordingDBMS(config, self.trace)
        database = fork_database(self._dbms, scale, seed, workload=self.workload)
        self._driver = entry.make_driver(
            database, seed + 1, **entry.config_knobs(self.workload)
        )
        self._cached: BoundaryTrace | None = None
        self._cache_checked = False
        self._saved_transactions = 0
        if use_cache is None:
            use_cache = trace_cache_dir() is not None
        self._use_cache = use_cache

    # -- recording ----------------------------------------------------------

    def _record_one(self) -> None:
        result = self._driver.run_one()
        trace = self.trace
        trace.ops.append(OP_TXEND)
        trace.args.append(
            (self._kind_index[result.kind] << 1) | int(result.committed)
        )
        trace.n_transactions += 1

    def ensure(self, n_transactions: int) -> BoundaryTrace:
        """Return a trace covering at least ``n_transactions``."""
        if self._use_cache and not self._cache_checked:
            self._check_cache()
        cached = self._cached
        if cached is not None:
            if cached.n_transactions >= n_transactions:
                return cached
            # The live recorder must catch up from its validation prefix;
            # once it passes the cached length the cache is obsolete.
            self._cached = None
        trace = self.trace
        if trace.n_transactions < n_transactions:
            start = trace.n_transactions
            record_one = self._record_one
            while trace.n_transactions < n_transactions:
                record_one()
            if OBS.enabled:
                OBS.counter("replay.trace.recorded_transactions").inc(
                    trace.n_transactions - start
                )
        return trace

    # -- persistence --------------------------------------------------------

    def _cache_path(self) -> Path | None:
        directory = trace_cache_dir()
        if directory is None:
            return None
        return directory / _cache_key(self.scale, self.seed, self.workload.token)

    def _check_cache(self) -> None:
        self._cache_checked = True
        path = self._cache_path()
        if path is None:
            return
        cached = _load_trace(path, self.scale, self.seed, self.workload.token)
        if cached is None:
            return
        # Self-validation: re-record a fresh prefix with the current code
        # and require event-for-event equality.  A trace recorded by an
        # older workload/loader/RNG can therefore never be silently reused.
        limit = min(VALIDATION_TRANSACTIONS, cached.n_transactions)
        while self.trace.n_transactions < limit:
            self._record_one()
        live = self.trace
        if (
            cached.ops[: len(live.ops)] == live.ops
            and cached.args[: len(live.args)] == live.args
        ):
            self._cached = cached
            self._saved_transactions = cached.n_transactions
            if OBS.enabled:
                OBS.counter("replay.trace.cache_hits").inc()
        else:
            if OBS.enabled:
                OBS.counter("replay.trace.cache_stale").inc()

    def save_cache(self) -> bool:
        """Persist the longest known trace; True if a file was written."""
        if not self._use_cache:
            return False
        path = self._cache_path()
        if path is None:
            return False
        best = self.trace
        if self._cached is not None and self._cached.n_transactions >= best.n_transactions:
            best = self._cached
        if best.n_transactions <= self._saved_transactions or best.n_transactions == 0:
            return False
        try:
            _save_trace(path, self.scale, self.seed, best, self.workload.token)
        except OSError:
            return False
        self._saved_transactions = best.n_transactions
        return True

    def longest_trace(self) -> BoundaryTrace:
        """The longest trace currently known, without recording anything.

        Used by the sweep engine to publish the widest possible shared
        segment: a validated persisted trace may cover more transactions
        than the live one has recorded so far.
        """
        if self._use_cache and not self._cache_checked:
            self._check_cache()
        cached = self._cached
        if cached is not None and cached.n_transactions >= self.trace.n_transactions:
            return cached
        return self.trace


#: Per-process recorder registry: traces are shared across every sweep and
#: ``run_cells`` call in the process (e.g. a whole benchmark session).
#: Keyed by the full trace identity — a ``tpcc`` recorder can never serve
#: a ``ycsb`` cell at the same (scale, seed).
_RECORDERS: dict[tuple[ScaleProfile, int, WorkloadSpec], TraceRecorder] = {}


def get_recorder(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> TraceRecorder:
    workload = TPCC_SPEC if workload is None else workload
    key = (scale, seed, workload)
    recorder = _RECORDERS.get(key)
    if recorder is None:
        recorder = _RECORDERS[key] = TraceRecorder(scale, seed, workload=workload)
    return recorder


def has_recorder(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> bool:
    return (scale, seed, TPCC_SPEC if workload is None else workload) in _RECORDERS


def cached_trace_exists(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> bool:
    """True when a persisted trace file exists for the full trace identity.

    A cheap existence probe for the sweep engine's replay economics: a
    *lone* cell is only worth replaying when the recording cost is already
    sunk.  The file's contents are still validated against a freshly
    recorded prefix before any replay trusts them.
    """
    directory = trace_cache_dir()
    if directory is None:
        return False
    token = (workload or TPCC_SPEC).token
    return (directory / _cache_key(scale, seed, token)).exists()


def replay_source_exists(
    scale: ScaleProfile, seed: int, workload: WorkloadSpec | None = None
) -> bool:
    """Is a trace source already sunk for this stream?  A lone cell is
    worth replaying only when no fresh recording would be needed."""
    return has_recorder(scale, seed, workload) or cached_trace_exists(
        scale, seed, workload
    )


def save_recorded_traces() -> None:
    """Persist every live recorder's trace to the on-disk cache."""
    for recorder in _RECORDERS.values():
        recorder.save_cache()


def clear_recorders() -> None:
    """Drop all recorders, live and attached (tests)."""
    _RECORDERS.clear()
    _ATTACHED.clear()


# -- shared-memory recorders -------------------------------------------------


class SharedTraceRecorder:
    """Read-only recorder facade over an attached shared-memory trace.

    Quacks like :class:`TraceRecorder` for everything a replay touches
    (``ensure`` and the identity fields) but can never record: a
    published segment is immutable.  A replay that outruns the
    segment raises :class:`~repro.errors.SharedTraceExhausted`, which the
    sweep engine turns into a parent-side re-replay against the live
    recorder.
    """

    __slots__ = ("scale", "seed", "trace", "workload", "tx_kinds")

    def __init__(
        self,
        scale: ScaleProfile,
        seed: int,
        trace,
        workload: WorkloadSpec | None = None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.trace = trace
        self.workload = TPCC_SPEC if workload is None else workload
        self.tx_kinds = get_workload_entry(self.workload.name).tx_kinds

    def ensure(self, n_transactions: int):
        if n_transactions <= self.trace.n_transactions:
            return self.trace
        raise SharedTraceExhausted(
            f"shared trace for seed {self.seed} holds "
            f"{self.trace.n_transactions} transactions; "
            f"replay asked for {n_transactions}"
        )


#: Worker-side attachment cache: one mapping per shared segment, reused
#: across every cell the worker replays from it.
_ATTACHED: dict[str, SharedTraceRecorder] = {}


def _spec_workload(spec) -> WorkloadSpec:
    """The :class:`WorkloadSpec` a cell spec describes (``tpcc`` default)."""
    method = getattr(spec, "workload_spec", None)
    if method is None:
        return TPCC_SPEC
    return method()


def attached_recorder(spec) -> SharedTraceRecorder:
    """Attach (once per process) to the spec's published shared trace."""
    handle = spec.shared_trace
    recorder = _ATTACHED.get(handle.name)
    if recorder is None:
        trace = handle.attach()
        recorder = _ATTACHED[handle.name] = SharedTraceRecorder(
            spec.scale, spec.seed, trace, workload=_spec_workload(spec)
        )
    return recorder


def prepare_replay(specs) -> dict[str, Any]:
    """Pay each (scale, seed, workload) group's one-time trace preparation
    up front.

    Instantiating a recorder loads the database; ``ensure(1)`` also
    triggers on-disk cache validation (decode + prefix re-record) when a
    persisted trace exists.  Benchmarks call this before their timed
    passes so sweep timings stop charging those fixed costs to whichever
    cell happens to run first.
    """
    t_total = time.perf_counter()
    groups: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    for spec in specs:
        if not getattr(spec, "replay_ok", True):
            continue
        workload = _spec_workload(spec)
        key = (spec.scale, spec.seed, workload)
        if key in seen:
            continue
        seen.add(key)
        already_live = has_recorder(*key)
        t0 = time.perf_counter()
        recorder = get_recorder(*key)
        recorder.ensure(1)
        groups.append(
            {
                "seed": spec.seed,
                "workload": workload.token,
                "already_live": already_live,
                "cached_transactions": recorder._saved_transactions,
                "seconds": time.perf_counter() - t0,
            }
        )
    return {"groups": groups, "seconds": time.perf_counter() - t_total}


# -- replay ------------------------------------------------------------------


class ReplayRunner:
    """Drives a real :class:`SimulatedDBMS` from a recorded trace.

    Mirrors :class:`~repro.sim.runner.ExperimentRunner`'s warm-up and
    measurement protocol exactly; only the *source* of page accesses
    differs.  The replayed system needs no loaded database: nothing below
    the boundary reads row contents, and reading an absent disk page
    charges exactly what reading the loaded image would.
    """

    def __init__(self, config: SystemConfig, recorder: TraceRecorder) -> None:
        self.config = config
        self.recorder = recorder
        self.dbms = SimulatedDBMS(config)
        # The recorder's workload defines the TXEND kind alphabet; index 0
        # is the headline kind the throughput metric counts.
        self._tx_kinds = tuple(getattr(recorder, "tx_kinds", TX_KINDS))
        self.stats = WorkloadStats(headline_kind=self._tx_kinds[0])
        self._op_index = 0
        self._arg_index = 0
        self._tx_index = 0
        self._last_checkpoint_wall = 0.0
        self.warmup_transactions = 0
        # The inlined loop knows LRU's internals (hit == move_to_end
        # succeeding, and nothing in an LRU system ever reads a frame's
        # CLOCK reference bit); any other DRAM policy goes through the
        # exact loop, which only uses public component methods.
        self._fast = type(self.dbms.buffer._policy) is LruPolicy

    def _replay_one(self) -> None:
        """Replay the next recorded transaction, event by event.

        Two implementations of the same event semantics: the default is a
        hand-inlined loop (DRAM-hit path, WAL append and full-page-write
        bookkeeping flattened into locals) — it executes ~75 events per
        transaction and is the whole hot path of a fast-mode sweep, warm-up
        included.  When the observability layer is enabled, or the DRAM
        policy is not one the inlined loop knows, the exact loop drives the
        same components through their public methods so every OBS counter
        fires as in a full run.  Both order every timed operation — float
        accumulation included — exactly as the full-execution path, which
        is what makes replayed metrics bit-identical.
        """
        if OBS.enabled or not self._fast:
            self._replay_one_exact()
            return
        tx_index = self._tx_index
        trace = self.recorder.ensure(tx_index + 1)
        ops = trace.ops
        args = trace.args
        i = self._op_index
        ai = self._arg_index
        dbms = self.dbms
        # Simulated CPU runs in a local between commit points.  The adds
        # happen in exactly the order (and on exactly the running value) the
        # full path uses, so the float result is bit-identical; nothing
        # reads ``dbms.cpu_time`` mid-transaction, and ``_finish``'s own
        # per-transaction charge lands after the flush below.
        cpu = dbms.cpu_time
        cpu_per_access = dbms.config.cpu_per_page_access
        buffer = dbms.buffer
        frames_get = buffer._frames.get
        # Looked up per transaction, never kept: a crash's ``wipe`` gives
        # the pool a new policy, and a warm fork a new pool.
        move_to_end = buffer._policy._frames.move_to_end
        fetch_miss = dbms._fetch_miss
        log = dbms.log
        tail_append = log._tail.append
        fpw_done = log._fpw_done
        hits = 0
        misses = 0
        tx: Transaction | None = None
        txid = 0
        while True:
            op = ops[i]
            i += 1
            if op == OP_READ:
                cpu += cpu_per_access
                page_id = args[ai]
                ai += 1
                try:
                    # BufferPool.lookup hit, inlined: under LRU, residency
                    # and the touch are one OrderedDict operation.  The
                    # CLOCK reference bit is not maintained — nothing in an
                    # LRU system reads it (only ClockPolicy.victims does).
                    move_to_end(page_id)
                    hits += 1
                except KeyError:
                    misses += 1
                    fetch_miss(page_id)
            elif op == OP_READ_DUP:
                # Guaranteed hit on the already-MRU frame: only counters move.
                cpu += cpu_per_access
                hits += 1
            elif op == OP_UPDATE:
                packed = args[ai]
                ai += 1
                page_id = packed >> _PAYLOAD_BITS
                cpu += cpu_per_access
                frame = frames_get(page_id)
                if frame is not None:
                    hits += 1
                    move_to_end(page_id)
                else:
                    misses += 1
                    frame = fetch_miss(page_id)
                payload = packed & _PAYLOAD_MASK
                lsn = log._next_lsn  # LogManager.log_update_sized, inlined
                log._next_lsn = lsn + 1
                record = UpdateRecord(
                    lsn, txid, page_id, None, None, None, None, payload
                )
                tail_append(record)
                page = frame.page
                page.lsn = lsn  # Page.stamp, inlined
                frame.dirty = True  # Frame.on_update, inlined
                frame.fdirty = True
                if page_id not in fpw_done:  # take_fpw + attach, inlined
                    fpw_done.add(page_id)
                    record.page_image = page.to_image()
                    log._tail_bytes += BASE_RECORD_BYTES + payload + PAGE_SIZE
                else:
                    log._tail_bytes += BASE_RECORD_BYTES + payload
            elif op == OP_BEGIN:
                tx = dbms.begin()
                txid = tx.txid
            elif op == OP_COMMIT:
                dbms.cpu_time = cpu
                dbms.commit(tx)
            elif op == OP_ABORT:
                dbms.cpu_time = cpu
                dbms.abort(tx)
            else:  # OP_TXEND
                meta = args[ai]
                ai += 1
                break
        buffer_stats = buffer.stats
        buffer_stats.hits += hits
        buffer_stats.misses += misses
        self._op_index = i
        self._arg_index = ai
        self._tx_index = tx_index + 1
        stats = self.stats
        stats.executed += 1
        kind = self._tx_kinds[meta >> 1]
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if meta & 1:
            stats.committed += 1
            if meta >> 1 == 0:  # the headline kind is always index 0
                stats.neworder_commits += 1
        else:
            stats.aborted += 1

    def _replay_one_exact(self) -> None:
        tx_index = self._tx_index
        trace = self.recorder.ensure(tx_index + 1)
        ops = trace.ops
        args = trace.args
        i = self._op_index
        ai = self._arg_index
        dbms = self.dbms
        cpu_per_access = dbms.config.cpu_per_page_access
        lookup = dbms.buffer.lookup
        fetch_miss = dbms._fetch_miss
        log = dbms.log
        log_update_sized = log.log_update_sized
        take_fpw = log.take_fpw
        attach_image = log.attach_full_page_image
        tx: Transaction | None = None
        txid = 0
        page_id = -1  # OP_READ_DUP re-reads the previous event's page
        while True:
            op = ops[i]
            i += 1
            if op == OP_READ:
                dbms.cpu_time += cpu_per_access
                page_id = args[ai]
                ai += 1
                if lookup(page_id) is None:
                    fetch_miss(page_id)
            elif op == OP_READ_DUP:
                dbms.cpu_time += cpu_per_access
                if lookup(page_id) is None:  # pragma: no cover - always a hit
                    fetch_miss(page_id)
            elif op == OP_UPDATE:
                packed = args[ai]
                ai += 1
                page_id = packed >> _PAYLOAD_BITS
                dbms.cpu_time += cpu_per_access
                frame = lookup(page_id)
                if frame is None:
                    frame = fetch_miss(page_id)
                record = log_update_sized(txid, page_id, packed & _PAYLOAD_MASK)
                page = frame.page
                page.stamp(record.lsn)
                frame.dirty = True  # Frame.on_update, inlined
                frame.fdirty = True
                if take_fpw(page_id):
                    attach_image(record, page.to_image())
            elif op == OP_BEGIN:
                tx = dbms.begin()
                txid = tx.txid
            elif op == OP_COMMIT:
                dbms.commit(tx)
            elif op == OP_ABORT:
                dbms.abort(tx)
            else:  # OP_TXEND
                meta = args[ai]
                ai += 1
                break
        events = i - self._op_index
        self._op_index = i
        self._arg_index = ai
        self._tx_index = tx_index + 1
        stats = self.stats
        stats.executed += 1
        kind = self._tx_kinds[meta >> 1]
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if meta & 1:
            stats.committed += 1
            if meta >> 1 == 0:  # the headline kind is always index 0
                stats.neworder_commits += 1
        else:
            stats.aborted += 1
        if OBS.enabled:
            OBS.counter("replay.events").inc(events)
            OBS.counter("replay.transactions").inc()

    # -- protocol (mirrors ExperimentRunner) ---------------------------------

    def step(self) -> None:
        """Replay one transaction (the scenario stepping hook).

        The trace extends on demand (:meth:`TraceRecorder.ensure`), so a
        crash scenario stepping to its kill point effectively truncates
        the recording there — nothing past the crash is ever recorded or
        replayed.
        """
        self._replay_one()

    def warm_up(
        self, min_transactions: int = 500, max_transactions: int = 50_000
    ) -> int:
        fork_key = self._warm_fork_key(min_transactions, max_transactions)
        if fork_key is not None:
            fork = get_warm_fork(fork_key)
            if fork is not None:
                self._adopt_warm_fork(fork)
                return self.warmup_transactions
        executed = 0
        dbms = self.dbms
        while executed < min_transactions or (
            executed < max_transactions and not cache_populated(dbms)
        ):
            self._replay_one()
            executed += 1
        dbms.reset_measurements()
        self.stats.reset()
        if OBS.enabled:
            OBS.reset()
        self._last_checkpoint_wall = 0.0
        self.warmup_transactions = executed
        if fork_key is not None:
            put_warm_fork(fork_key, self._capture_warm_fork(executed))
        return executed

    # -- post-warm-up fork reuse (repro.sim.warmstate) -----------------------

    def _warm_fork_key(self, min_transactions: int, max_transactions: int):
        """Full replay identity of this warm-up, or ``None`` if ineligible.

        Warm-up is a pure function of (trace, config, bounds, loop): the
        trace is pinned by (scale, seed, workload).  OBS-enabled runs are
        ineligible — their warm-up must actually execute so the post-reset
        counter *set* matches a full run's — and the whole cache can be
        switched off via ``REPRO_REPLAY_WARMFORK=0``.
        """
        if OBS.enabled or not warm_fork_enabled():
            return None
        return (
            self.recorder.scale,
            self.recorder.seed,
            getattr(self.recorder, "workload", TPCC_SPEC),
            repr(self.config),
            min_transactions,
            max_transactions,
            "lru" if self._fast else "exact",
        )

    def _capture_warm_fork(self, executed: int) -> WarmFork:
        return WarmFork(
            dbms=fork_dbms(self.dbms),
            op_index=self._op_index,
            arg_index=self._arg_index,
            tx_index=self._tx_index,
            executed=executed,
        )

    def _adopt_warm_fork(self, fork: WarmFork) -> None:
        # Re-fork so the cached copy stays pristine for the next adopter.
        dbms = fork_dbms(fork.dbms)
        self.dbms = dbms
        self._op_index = fork.op_index
        self._arg_index = fork.arg_index
        self._tx_index = fork.tx_index
        self.warmup_transactions = fork.executed
        self.stats.reset()
        self._last_checkpoint_wall = 0.0

    def measure(
        self,
        n_transactions: int,
        checkpoint_interval: float | None = None,
        series: ThroughputSeries | None = None,
        sample_every: int = 50,
    ) -> RunResult:
        dbms = self.dbms
        executed_at_sample = 0
        ops_before = self._op_index
        t0 = time.perf_counter()
        for _ in range(n_transactions):
            self._replay_one()
            if checkpoint_interval is not None:
                wall = dbms.wall_clock()
                if wall - self._last_checkpoint_wall >= checkpoint_interval:
                    dbms.checkpoint()
                    self._last_checkpoint_wall = wall
            if series is not None:
                executed_at_sample += 1
                if executed_at_sample % sample_every == 0:
                    series.record(dbms.wall_clock(), self.stats.neworder_commits)
        if series is not None:
            series.record(dbms.wall_clock(), self.stats.neworder_commits)
        if OBS.enabled:
            # Harness (not simulated) replay throughput; lives in the
            # ``replay.`` namespace, which parity checks exclude because
            # it describes the replay machinery, never the system under
            # measurement.
            elapsed = time.perf_counter() - t0
            if elapsed > 0.0:
                OBS.gauge("replay.events_per_sec").set(
                    (self._op_index - ops_before) / elapsed
                )
        return self.summarise()

    def summarise(self) -> RunResult:
        return summarise_run(
            self.config, self.dbms, self.stats, self.warmup_transactions
        )


def replay_cell(spec, recorder: TraceRecorder):
    """Replay one sweep cell (mirrors :func:`repro.sim.parallel.run_cell`).

    The spec's scenario owns the protocol, so steady cells measure and
    crash cells run the Section 5.5 schedule over the replayed stream —
    the trace extends on demand, so a crash cell records (and replays)
    nothing past its kill point.
    """
    return _execute_cell(spec, lambda: ReplayRunner(spec.config, recorder))
