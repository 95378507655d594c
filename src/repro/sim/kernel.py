"""Vectorized replay kernel: batched event processing for the fast path.

The per-event replay loops in :mod:`repro.sim.replay` dispatch one Python
branch per recorded event (~75 events/transaction).  This module replaces
them — for LRU-pooled systems — with a **batched kernel** that works on a
precompiled token stream:

* The trace is segmented once into **tokens**: each maximal run of READ /
  READ_DUP events between state-changing events (updates, commits, aborts,
  transaction boundaries) collapses into a single ``K_RUN`` token carrying
  its event and operand counts; every other event becomes one token with
  its operand inlined.  Segmentation is itself vectorized under numpy
  (:class:`ReplayPlan`), with a pure-Python builder when numpy is absent,
  and the plan extends append-only as the trace grows (crash cells record
  on demand), amortised across every cell replaying the same trace.
* Each ``K_RUN`` token is classified in bulk: a numpy gather over the
  pool's per-page recency ticks splits the run into a DRAM-hit prefix and
  the first miss.  Hit chunks bulk-update recency state with one array
  assignment; misses drop into the real
  :meth:`~repro.core.dbms.SimulatedDBMS._fetch_miss` path, where the flash
  cache decides flash-hit vs disk — so every timed component still runs in
  the exact order the scalar loop drives it.  Short runs (the TPC-C median
  is ~4 reads) take a tight scalar loop instead; numpy's per-call overhead
  would otherwise dominate (``VECTOR_MIN_RUN``).

**Why batched replay stays bit-identical** (pinned by
``tests/test_replay_parity.py``):

* CPU time accumulates as one scalar float add per event, in event order —
  within a run every addend is the same ``cpu_per_page_access``, so the
  sequential adds the kernel performs are the exact adds the scalar loop
  performs (``n * b`` would *not* be bit-identical).
* Recency is kept as a monotonic per-page **tick**
  (:class:`BatchLruPolicy`); ordering frames by tick is exactly the
  OrderedDict order strict LRU maintains, duplicate pages in one hit chunk
  resolve to their last occurrence (last assignment wins), and eviction
  picks the globally smallest valid tick — the same victim LRU picks.
  Every external reader (checkpoints, GSC tail pulls, crash wipe) goes
  through the :class:`~repro.buffer.replacement.ReplacementPolicy`
  interface, so no out-of-band state can diverge.
* Misses, evictions, WAL forces and device charges all run through the
  unmodified component methods, one at a time, at the position in the
  event stream where the scalar loop would run them: a hit chunk is
  applied *before* the miss that follows it, which is exactly the scalar
  interleaving.

The kernel is on by default for LRU pools and can be disabled with
``REPRO_REPLAY_KERNEL=0`` (the legacy scalar loops remain as the
fallback); CLOCK pools always take the exact loop.  numpy is optional
(the ``fast`` extra); without it the kernel still runs the token stream
with dict-backed ticks — same semantics, less speed — and reports which
path ran via the ``replay.kernel.vectorized`` gauge.
"""

from __future__ import annotations

import copy
import os
from array import array
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from typing import TYPE_CHECKING

from repro.buffer.frame import Frame
from repro.buffer.replacement import ReplacementPolicy
from repro.errors import BufferFullError, ConfigError
from repro.obs import OBS
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
)
from repro.storage.profiles import PAGE_SIZE
from repro.tpcc.driver import _MIX
from repro.wal.records import BASE_RECORD_BYTES, ReplayMarkerRecord, ReplayUpdateRecord

#: Transaction kinds in mix order (TXEND packs (kind_index << 1) | committed);
#: duplicated from :mod:`repro.sim.replay` to avoid a circular import.
_TX_KINDS = tuple(kind for kind, _ in _MIX)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.replay import ReplayRunner

try:  # numpy is optional (the ``fast`` extra); tests monkeypatch this to None
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None


def kernel_enabled() -> bool:
    """The ``REPRO_REPLAY_KERNEL`` gate (default on; ``0``/``off`` disables)."""
    value = os.environ.get("REPRO_REPLAY_KERNEL")
    if value is None:
        return True
    return value.strip().lower() not in {"0", "off", "no", "false"}


def numpy_active() -> bool:
    """True when the vectorized (numpy) kernel path is available."""
    return _np is not None


def remap_trace_args(ops, args, table, start_op: int = 0, start_arg: int = 0):
    """Remap the page operands of a trace suffix through a page-id ``table``.

    ``table`` maps every donor page id to its target page id (``table[p]``),
    as built by :func:`repro.sim.retarget.build_remap_table`.  READ operands
    are page ids and remap directly; UPDATE operands pack
    ``(page_id << PAYLOAD_BITS) | payload`` and remap only the page half;
    TXEND operands (transaction kind/outcome) pass through untouched.

    Vectorized under numpy with the same frombuffer/cumsum idiom the plan
    compiler uses; the pure-``array`` fallback walks the suffix once.
    Returns a new ``array('q')`` of remapped operands for the suffix
    starting at ``(start_op, start_arg)``.
    """
    if _np is not None:
        ops_np = _np.frombuffer(ops, dtype=_np.uint8)[start_op:]
        args_np = _np.frombuffer(args, dtype=_np.int64)[start_arg:]
        lut = _np.frombuffer(table, dtype=_np.int64)
        is_read = ops_np == OP_READ
        is_update = ops_np == OP_UPDATE
        has_arg = is_read | is_update | (ops_np == OP_TXEND)
        # Operand slot of each event: a running count of operand-carrying
        # events before it (READ_DUP and control events consume no slot).
        arg_of_event = _np.cumsum(has_arg) - has_arg
        out = args_np.copy()
        read_slots = arg_of_event[is_read]
        out[read_slots] = lut[args_np[read_slots]]
        update_slots = arg_of_event[is_update]
        packed = args_np[update_slots]
        out[update_slots] = (lut[packed >> _PAYLOAD_BITS] << _PAYLOAD_BITS) | (
            packed & _PAYLOAD_MASK
        )
        result = array("q")
        result.frombytes(out.tobytes())
        return result

    out = array("q", args[start_arg:])
    slot = 0
    for op in ops[start_op:]:
        if op == OP_READ:
            out[slot] = table[out[slot]]
            slot += 1
        elif op == OP_UPDATE:
            packed = out[slot]
            out[slot] = (table[packed >> _PAYLOAD_BITS] << _PAYLOAD_BITS) | (
                packed & _PAYLOAD_MASK
            )
            slot += 1
        elif op == OP_TXEND:
            slot += 1
    return out


#: Minimum reads in a run before the numpy gather path beats the tight
#: scalar loop.  A one-chunk hit run costs ~5 numpy calls (~0.5-1us each)
#: regardless of length, while the scalar loop pays ~0.1-0.15us per read —
#: so break-even sits in the low twenties.  The TPC-C boundary stream has
#: a median run of ~4 reads, but stock-level scans reach hundreds.
VECTOR_MIN_RUN = 24

# -- token alphabet ----------------------------------------------------------
#
# One token per state-changing event; one K_RUN token per maximal stretch of
# OP_READ/OP_READ_DUP events.  K_RUN packs (n_events << _RUN_SHIFT) | n_reads
# (dups carry no operand, so n_reads <= n_events); K_UPDATE and K_TXEND carry
# their trace operand verbatim.

K_RUN = 0
K_UPDATE = 1
K_BEGIN = 2
K_COMMIT = 3
K_ABORT = 4
K_TXEND = 5

_KIND_OF_OP = (K_BEGIN, K_RUN, K_UPDATE, K_COMMIT, K_ABORT, K_TXEND, K_RUN)
_RUN_SHIFT = 20
_RUN_MASK = (1 << _RUN_SHIFT) - 1

_KIND_LUT_NP = _np.array(_KIND_OF_OP, dtype=_np.uint8) if _np is not None else None


class ReplayPlan:
    """The compiled token stream for one boundary trace.

    Append-only: :meth:`extend` compiles any trace suffix past
    ``covered_ops`` (the recorder only ever appends whole transactions, so
    extension slices always start at a transaction boundary).  One plan is
    cached per recorder (``recorder.kernel_plan``) and shared by every cell
    replaying that trace — including workers attached to a shared-memory
    trace, which cache the plan per segment.
    """

    __slots__ = (
        "tkind",
        "tval",
        "covered_ops",
        "covered_args",
        "max_page",
        "_np",
        "pages",
    )

    def __init__(self) -> None:
        self._np = _np
        self.tkind = array("B")
        self.tval = array("q")
        self.covered_ops = 0
        self.covered_args = 0
        #: Largest page id any READ or UPDATE in the plan touches; the
        #: batch policy sizes its tick array from this so run gathers never
        #: index out of bounds.
        self.max_page = 0
        #: All READ operands in plan order.  Kept as ``array('q')`` so the
        #: scalar loop iterates plain ints; the kernel wraps a zero-copy
        #: ``np.frombuffer`` view around it per transaction for gathers
        #: (dropped before the plan can extend again, so the array is
        #: never resized while a view exports its buffer).
        self.pages = array("q")

    # -- building ------------------------------------------------------------

    def extend(self, trace) -> None:
        """Compile ``trace``'s events past ``covered_ops`` into tokens."""
        ops = trace.ops
        start = self.covered_ops
        end = len(ops)
        if end <= start:
            return
        if self._np is not None and end - start >= 64:
            self._extend_np(trace, start, end)
        else:
            self._extend_scalar(trace, start, end)
        self.covered_ops = end

    def _extend_np(self, trace, start: int, end: int) -> None:
        np = self._np
        ops_np = np.frombuffer(trace.ops, dtype=np.uint8, count=end)[start:]
        args_np = np.frombuffer(trace.args, dtype=np.int64)
        a0 = self.covered_args
        is_read = ops_np == OP_READ
        read_ev = is_read | (ops_np == OP_READ_DUP)
        has_arg = is_read | (ops_np == OP_UPDATE) | (ops_np == OP_TXEND)
        # Exclusive running operand count within the slice: operand index
        # of event i (when it has one) is a0 + arg_off[i].
        arg_off = np.cumsum(has_arg) - has_arg
        prev_read = np.empty_like(read_ev)
        prev_read[0] = False
        prev_read[1:] = read_ev[:-1]
        starts = np.flatnonzero(~read_ev | ~prev_read)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = end - start
        kinds = _KIND_LUT_NP[ops_np[starts]]
        vals = np.zeros(len(starts), dtype=np.int64)
        run_mask = kinds == K_RUN
        if run_mask.any():
            creads = np.cumsum(is_read)
            s_idx = starts[run_mask]
            e_idx = ends[run_mask]
            n_reads = creads[e_idx - 1] - creads[s_idx] + is_read[s_idx]
            n_events = e_idx - s_idx
            if int(n_events.max()) > _RUN_MASK:
                raise ConfigError(
                    f"read run of {int(n_events.max())} events exceeds the "
                    f"token packing limit ({_RUN_MASK})"
                )
            vals[run_mask] = (n_events.astype(np.int64) << _RUN_SHIFT) | n_reads
        arg_mask = (kinds == K_UPDATE) | (kinds == K_TXEND)
        if arg_mask.any():
            vals[arg_mask] = args_np[a0 + arg_off[starts[arg_mask]]]
        new_pages = args_np[a0 + arg_off[is_read]]
        self.tkind.frombytes(kinds.tobytes())
        self.tval.frombytes(vals.tobytes())
        self.pages.frombytes(new_pages.tobytes())
        self.covered_args = a0 + int(has_arg.sum())
        max_page = self.max_page
        if new_pages.size:
            max_page = max(max_page, int(new_pages.max()))
        upd_mask = kinds == K_UPDATE
        if upd_mask.any():
            max_page = max(max_page, int((vals[upd_mask] >> _PAYLOAD_BITS).max()))
        self.max_page = max_page

    def _extend_scalar(self, trace, start: int, end: int) -> None:
        ops = trace.ops
        args = trace.args
        tkind_append = self.tkind.append
        tval_append = self.tval.append
        ai = self.covered_args
        max_page = self.max_page
        run_events = 0
        run_reads = 0
        new_pages: list[int] = []
        i = start
        while i < end:
            op = ops[i]
            i += 1
            if op == OP_READ:
                page = args[ai]
                ai += 1
                new_pages.append(page)
                if page > max_page:
                    max_page = page
                run_events += 1
                run_reads += 1
            elif op == OP_READ_DUP:
                run_events += 1
            else:
                if run_events:
                    if run_events > _RUN_MASK:
                        raise ConfigError(
                            f"read run of {run_events} events exceeds the "
                            f"token packing limit ({_RUN_MASK})"
                        )
                    tkind_append(K_RUN)
                    tval_append((run_events << _RUN_SHIFT) | run_reads)
                    run_events = run_reads = 0
                if op == OP_UPDATE:
                    packed = args[ai]
                    ai += 1
                    tkind_append(K_UPDATE)
                    tval_append(packed)
                    page = packed >> _PAYLOAD_BITS
                    if page > max_page:
                        max_page = page
                elif op == OP_BEGIN:
                    tkind_append(K_BEGIN)
                    tval_append(0)
                elif op == OP_COMMIT:
                    tkind_append(K_COMMIT)
                    tval_append(0)
                elif op == OP_ABORT:
                    tkind_append(K_ABORT)
                    tval_append(0)
                else:  # OP_TXEND
                    tkind_append(K_TXEND)
                    tval_append(args[ai])
                    ai += 1
        if run_events:  # recorder appends whole transactions; defensive
            tkind_append(K_RUN)
            tval_append((run_events << _RUN_SHIFT) | run_reads)
        self.covered_args = ai
        self.max_page = max_page
        if new_pages:
            self.pages.extend(new_pages)


class BatchLruPolicy(ReplacementPolicy):
    """Strict LRU kept as per-page recency **ticks** instead of a linked list.

    Semantically a drop-in for :class:`~repro.buffer.replacement.LruPolicy`:
    frames ordered by tick are exactly the OrderedDict order (every touch
    assigns a fresh monotonic tick), and :meth:`victims` returns the same
    coldest-first unpinned frames.  The tick representation is what lets
    the replay kernel classify and touch whole read runs with two numpy
    array operations; a dict holds the ticks when numpy is absent.

    Eviction uses a lazy min-heap of ``(tick, page_id)`` entries: an entry
    is valid iff it matches the page's current tick; stale entries (the
    page was touched since) are refreshed in place, dead entries (the page
    was evicted) are dropped as they surface.  Touches never push, so the
    heap stays near the resident-set size.
    """

    def __init__(self) -> None:
        self._np = _np
        self._frames: dict[int, Frame] = {}
        self._heap: list[tuple[int, int]] = []
        self._next_tick = 0
        if self._np is not None:
            # The tick store is an ``array('q')`` with a zero-copy numpy
            # view over the *same* buffer: scalar touches go through the
            # array's fast C setitem (numpy scalar assignment is ~3x
            # slower), bulk run classification through the view.  Growth
            # always allocates a fresh array (never resizes in place), so
            # the exported view can never dangle.
            self._ticks = array("q", [-1]) * 1024
            self._ticks_np = self._np.frombuffer(self._ticks, dtype=self._np.int64)
        else:
            self._ticks = {}
            self._ticks_np = None

    def __deepcopy__(self, memo: dict) -> "BatchLruPolicy":
        # Warm-state forking (repro.sim.warmstate) deep-copies whole DBMS
        # graphs; the default protocol would choke on the numpy *module*
        # reference and silently sever the array/ndarray buffer pairing.
        clone = object.__new__(BatchLruPolicy)
        memo[id(self)] = clone
        clone._np = self._np  # module handle, shared by design
        clone._frames = copy.deepcopy(self._frames, memo)
        clone._heap = list(self._heap)  # entries are immutable tuples
        clone._next_tick = self._next_tick
        if self._ticks_np is not None:
            # Rebuild the zero-copy view over the *clone's* buffer; a plain
            # deepcopy would leave the view aliasing the original's ticks.
            clone._ticks = array("q", self._ticks)
            clone._ticks_np = clone._np.frombuffer(
                clone._ticks, dtype=clone._np.int64
            )
        else:
            clone._ticks = dict(self._ticks)
            clone._ticks_np = None
        return clone

    def ensure_capacity(self, max_page: int) -> None:
        """Grow the tick store to cover ``max_page`` (numpy mode only)."""
        if self._ticks_np is None:
            return
        ticks = self._ticks
        if max_page < len(ticks):
            return
        grown = array("q", [-1]) * max(max_page + 1, len(ticks) * 2)
        grown[: len(ticks)] = ticks
        self._ticks = grown
        self._ticks_np = self._np.frombuffer(grown, dtype=self._np.int64)

    def insert(self, frame: Frame) -> None:
        page_id = frame.page_id
        self._frames[page_id] = frame
        tick = self._next_tick
        self._next_tick = tick + 1
        if self._ticks_np is not None and page_id >= len(self._ticks):
            self.ensure_capacity(page_id)
        self._ticks[page_id] = tick
        heappush(self._heap, (tick, page_id))

    def touch(self, frame: Frame) -> None:
        tick = self._next_tick
        self._next_tick = tick + 1
        self._ticks[frame.page_id] = tick

    def remove(self, page_id: int) -> None:
        if self._frames.pop(page_id, None) is None:
            return
        if self._ticks_np is not None:
            self._ticks[page_id] = -1
        else:
            self._ticks.pop(page_id, None)
        # The page's heap entry is now dead; it is dropped when it surfaces.

    def victims(self, count: int) -> list[Frame]:
        out: list[Frame] = []
        if count < 1:
            return out
        heap = self._heap
        frames = self._frames
        # A resident page always has a tick; array and dict both index by id.
        ticks = self._ticks
        if count == 1:
            # The eviction path: settle the heap top and read it off; the
            # pop + re-push of the general loop leaves the same heap contents.
            while heap:
                tick, page_id = heap[0]
                frame = frames.get(page_id)
                if frame is None:
                    heappop(heap)  # dead: the page left the pool
                elif ticks[page_id] != tick:
                    heapreplace(heap, (ticks[page_id], page_id))  # stale: refresh
                elif frame.pin_count:
                    break  # coldest frame is pinned: scan past it below
                else:
                    return [frame]
        taken: list[tuple[int, int]] = []
        seen: set[int] = set()
        while heap and len(out) < count:
            tick, page_id = heap[0]
            frame = frames.get(page_id)
            if frame is None:
                heappop(heap)  # dead: the page left the pool
                continue
            if page_id in seen:
                # Evict + re-insert leaves multiple entries per page; once
                # one surfaced as valid this call, drop the extras for good
                # (the valid one is re-pushed below).
                heappop(heap)
                continue
            current = ticks[page_id]
            if current != tick:
                heapreplace(heap, (current, page_id))  # stale: refresh
                continue
            heappop(heap)
            seen.add(page_id)
            taken.append((tick, page_id))
            if not frame.pin_count:
                out.append(frame)
        for entry in taken:  # victims() must not mutate ordering state
            heappush(heap, entry)
        if not out:
            raise BufferFullError("all frames pinned; cannot evict")
        return out

    def frames(self) -> list[Frame]:
        ticks = self._ticks  # array and dict both index by page id
        return sorted(self._frames.values(), key=lambda f: ticks[f.page.page_id])


class ReplayKernel:
    """Token-stream replay engine bound to one :class:`ReplayRunner`.

    Installs a :class:`BatchLruPolicy` into the runner's (still empty)
    buffer pool, compiles/extends the shared :class:`ReplayPlan`, and
    provides the two stepping loops the runner dispatches to:
    :meth:`replay_one_measured` (full accounting, with or without OBS) and
    :meth:`replay_one_lean` (warm-up only: skips exactly what
    ``reset_measurements`` zeroes, like the scalar lean loop).
    """

    def __init__(self, runner: "ReplayRunner") -> None:
        self.runner = runner
        self.dbms = runner.dbms
        self.recorder = runner.recorder
        # The recorder's workload defines the TXEND kind alphabet
        # (headline kind first); TPC-C's is the default.
        self._tx_kinds = tuple(getattr(runner.recorder, "tx_kinds", _TX_KINDS))
        policy = BatchLruPolicy()
        # The runner's system is freshly built: no frame is resident yet,
        # so the swap inherits nothing and every later admission flows
        # through the policy interface.
        self.dbms.buffer._policy = policy
        self.policy = policy
        self._cpu_per_access = self.dbms.config.cpu_per_page_access
        plan = getattr(runner.recorder, "kernel_plan", None)
        if plan is None:
            plan = ReplayPlan()
            runner.recorder.kernel_plan = plan
        self.plan = plan
        self._vector = policy._ticks_np is not None
        self._ti = 0
        self._ri = 0
        # Batch telemetry (replay.kernel.* — machinery namespace, excluded
        # from parity by construction).
        self._runs = 0
        self._batched_reads = 0
        self._scalar_reads = 0
        self._events = 0
        self._transactions = 0
        self._published: dict[str, int] = {}
        self._obs = OBS.enabled
        if self._obs:
            # Pre-create the counters the exact loop would create via
            # BufferPool.lookup, so snapshots name the same metric set.
            self._obs_hit = OBS.counter("buffer.pool.hit")
            self._obs_miss = OBS.counter("buffer.pool.miss")
            self._obs_events = OBS.counter("replay.events")
            self._obs_tx = OBS.counter("replay.transactions")

    def _sync_plan(self, trace) -> None:
        plan = self.plan
        if plan.covered_ops < len(trace.ops):
            plan.extend(trace)
        # Unconditional (cheap when already sized): every page the coming
        # transaction can fetch is <= plan.max_page, so the tick array can
        # never be replaced mid-transaction under the loop's local binding.
        self.policy.ensure_capacity(plan.max_page)

    # -- measured loop -------------------------------------------------------

    def replay_one_measured(self) -> None:
        """Replay one transaction with full measurement accounting.

        Token-for-token mirror of ``ReplayRunner._replay_one``: the same
        inlined WAL/update fast path, the same commit-time CPU flush, the
        same per-transaction stats block — with read runs processed in
        bulk.  With OBS enabled, counters the exact loop increments per
        event are incremented once per transaction by the same totals.
        """
        runner = self.runner
        tx_index = runner._tx_index
        trace = self.recorder.ensure(tx_index + 1)
        self._sync_plan(trace)
        plan = self.plan
        tkind = plan.tkind
        tval = plan.tval
        pages = plan.pages
        ti = self._ti
        ri = self._ri
        dbms = self.dbms
        # Simulated CPU runs in a local between commit points; see
        # ReplayRunner._replay_one for the bit-identity argument.  Within a
        # run every addend equals ``cpu_per_access``, so the sequential
        # adds below are the scalar loop's adds in the scalar loop's order.
        cpu = dbms.cpu_time
        cpu_per_access = self._cpu_per_access
        policy = self.policy
        ticks = policy._ticks
        ticks_np = policy._ticks_np
        np = policy._np
        # Per-transaction zero-copy view for run gathers; dropped on return
        # so the plan's page array can extend between transactions.
        pages_np = (
            np.frombuffer(pages, dtype=np.int64) if ticks_np is not None else None
        )
        frames = dbms.buffer._frames
        frames_get = frames.get
        fetch_miss = dbms._fetch_miss
        log = dbms.log
        tail_append = log._tail.append
        fpw_done = log._fpw_done
        t = policy._next_tick
        hits = 0
        misses = 0
        events = 0
        nargs = 0
        tx = None
        txid = 0
        while True:
            kind = tkind[ti]
            value = tval[ti]
            ti += 1
            if kind == K_RUN:
                n_events = value >> _RUN_SHIFT
                n_reads = value & _RUN_MASK
                events += n_events
                nargs += n_reads
                for _ in repeat(None, n_events):
                    cpu += cpu_per_access
                end = ri + n_reads
                run_misses = 0
                if pages_np is not None and n_reads >= VECTOR_MIN_RUN:
                    pos = ri
                    while pos < end:
                        seg = pages_np[pos:end]
                        resident = ticks_np[seg] >= 0
                        n_hit = int(resident.argmin())
                        if resident[n_hit]:
                            n_hit = end - pos
                        if n_hit:
                            ticks_np[seg[:n_hit]] = np.arange(
                                t, t + n_hit, dtype=np.int64
                            )
                            t += n_hit
                            pos += n_hit
                            if pos >= end:
                                break
                        page_id = pages[pos]
                        pos += 1
                        run_misses += 1
                        policy._next_tick = t
                        fetch_miss(page_id)
                        t = policy._next_tick
                    self._batched_reads += n_reads - run_misses
                else:
                    for page_id in pages[ri:end]:
                        if page_id in frames:
                            ticks[page_id] = t
                            t += 1
                        else:
                            run_misses += 1
                            policy._next_tick = t
                            fetch_miss(page_id)
                            t = policy._next_tick
                    self._scalar_reads += n_reads
                ri = end
                misses += run_misses
                hits += n_events - run_misses  # read hits plus every dup
                self._runs += 1
            elif kind == K_UPDATE:
                events += 1
                nargs += 1
                page_id = value >> _PAYLOAD_BITS
                cpu += cpu_per_access
                frame = frames_get(page_id)
                if frame is not None:
                    hits += 1
                    ticks[page_id] = t  # policy.touch, inlined
                    t += 1
                else:
                    misses += 1
                    policy._next_tick = t
                    frame = fetch_miss(page_id)
                    t = policy._next_tick
                payload = value & _PAYLOAD_MASK
                lsn = log._next_lsn  # LogManager.log_update_sized, inlined
                log._next_lsn = lsn + 1
                record = ReplayUpdateRecord(lsn, txid, page_id, payload)
                tail_append(record)
                page = frame.page
                page.lsn = lsn  # Page.stamp, inlined
                page._image = None
                frame.dirty = True  # Frame.on_update, inlined
                frame.fdirty = True
                if page_id not in fpw_done:  # take_fpw + attach, inlined
                    fpw_done.add(page_id)
                    record.page_image = page.to_image()
                    log._tail_bytes += BASE_RECORD_BYTES + payload + 4096
                else:
                    log._tail_bytes += BASE_RECORD_BYTES + payload
            elif kind == K_BEGIN:
                events += 1
                tx = dbms.begin()
                txid = tx.txid
            elif kind == K_COMMIT:
                events += 1
                dbms.cpu_time = cpu
                policy._next_tick = t
                dbms.commit(tx)
            elif kind == K_ABORT:
                events += 1
                dbms.cpu_time = cpu
                policy._next_tick = t
                dbms.abort(tx)
            else:  # K_TXEND
                events += 1
                nargs += 1
                meta = value
                break
        policy._next_tick = t
        buffer_stats = dbms.buffer.stats
        buffer_stats.hits += hits
        buffer_stats.misses += misses
        self._ti = ti
        self._ri = ri
        self._events += events
        self._transactions += 1
        runner._op_index += events
        runner._arg_index += nargs
        runner._tx_index = tx_index + 1
        stats = runner.stats
        stats.executed += 1
        kind_name = self._tx_kinds[meta >> 1]
        stats.by_kind[kind_name] = stats.by_kind.get(kind_name, 0) + 1
        if meta & 1:
            stats.committed += 1
            if meta >> 1 == 0:  # the headline kind is always index 0
                stats.neworder_commits += 1
        else:
            stats.aborted += 1
        if self._obs:
            # Bulk increments: same totals as the exact loop's per-event
            # BufferPool.lookup counting.
            self._obs_hit.inc(hits)
            self._obs_miss.inc(misses)
            self._obs_events.inc(events)
            self._obs_tx.inc()

    # -- lean (warm-up) loop -------------------------------------------------

    def replay_one_lean(self) -> None:
        """Warm-up-only loop: the token twin of ``_replay_one_lean``.

        Everything ``reset_measurements`` zeroes at the warm-up/measure
        boundary is simply not maintained; state that survives the
        boundary (pool membership and tick order, page LSNs, dirty flags,
        WAL tail, full-page-write bookkeeping, device positions) evolves
        exactly as the measured loop evolves it.
        """
        runner = self.runner
        tx_index = runner._tx_index
        trace = self.recorder.ensure(tx_index + 1)
        self._sync_plan(trace)
        plan = self.plan
        tkind = plan.tkind
        tval = plan.tval
        pages = plan.pages
        ti = self._ti
        ri = self._ri
        dbms = self.dbms
        policy = self.policy
        ticks = policy._ticks
        ticks_np = policy._ticks_np
        np = policy._np
        # Per-transaction zero-copy view for run gathers; dropped on return
        # so the plan's page array can extend between transactions.
        pages_np = (
            np.frombuffer(pages, dtype=np.int64) if ticks_np is not None else None
        )
        frames = dbms.buffer._frames
        frames_get = frames.get
        fetch_miss = dbms._fetch_miss
        next_txid = dbms._txid_counter.__next__
        log = dbms.log
        log_device = log.device
        log_capacity = log_device.capacity_pages
        tail = log._tail
        tail_append = tail.append
        durable_extend = log._durable.extend
        fpw_done = log._fpw_done
        t = policy._next_tick
        events = 0
        nargs = 0
        txid = 0
        while True:
            kind = tkind[ti]
            value = tval[ti]
            ti += 1
            if kind == K_RUN:
                n_events = value >> _RUN_SHIFT
                n_reads = value & _RUN_MASK
                events += n_events
                nargs += n_reads
                end = ri + n_reads
                run_misses = 0
                if pages_np is not None and n_reads >= VECTOR_MIN_RUN:
                    pos = ri
                    while pos < end:
                        seg = pages_np[pos:end]
                        resident = ticks_np[seg] >= 0
                        n_hit = int(resident.argmin())
                        if resident[n_hit]:
                            n_hit = end - pos
                        if n_hit:
                            ticks_np[seg[:n_hit]] = np.arange(
                                t, t + n_hit, dtype=np.int64
                            )
                            t += n_hit
                            pos += n_hit
                            if pos >= end:
                                break
                        page_id = pages[pos]
                        pos += 1
                        run_misses += 1
                        policy._next_tick = t
                        fetch_miss(page_id)
                        t = policy._next_tick
                    self._batched_reads += n_reads - run_misses
                else:
                    for page_id in pages[ri:end]:
                        if page_id in frames:
                            ticks[page_id] = t
                            t += 1
                        else:
                            policy._next_tick = t
                            fetch_miss(page_id)
                            t = policy._next_tick
                    self._scalar_reads += n_reads
                ri = end
                self._runs += 1
            elif kind == K_UPDATE:
                events += 1
                nargs += 1
                page_id = value >> _PAYLOAD_BITS
                frame = frames_get(page_id)
                if frame is not None:
                    ticks[page_id] = t
                    t += 1
                else:
                    policy._next_tick = t
                    frame = fetch_miss(page_id)
                    t = policy._next_tick
                payload = value & _PAYLOAD_MASK
                lsn = log._next_lsn  # LogManager.log_update_sized, inlined
                log._next_lsn = lsn + 1
                record = ReplayUpdateRecord(lsn, txid, page_id, payload)
                tail_append(record)
                page = frame.page
                page.lsn = lsn  # Page.stamp, inlined
                page._image = None
                frame.dirty = True  # Frame.on_update, inlined
                frame.fdirty = True
                if page_id not in fpw_done:  # take_fpw + attach, inlined
                    fpw_done.add(page_id)
                    record.page_image = page.to_image()
                    log._tail_bytes += BASE_RECORD_BYTES + payload + 4096
                else:
                    log._tail_bytes += BASE_RECORD_BYTES + payload
            elif kind == K_BEGIN:
                # dbms.begin() minus what no replayed warm-up reads back
                # (see the scalar lean loop).
                events += 1
                txid = next_txid()
                lsn = log._next_lsn
                log._next_lsn = lsn + 1
                tail_append(ReplayMarkerRecord(lsn))
                log._tail_bytes += BASE_RECORD_BYTES
            elif kind == K_TXEND:
                events += 1
                nargs += 1
                break
            else:  # K_COMMIT / K_ABORT: log.commit/log_abort + force, inlined
                events += 1
                lsn = log._next_lsn
                log._next_lsn = lsn + 1
                tail_append(ReplayMarkerRecord(lsn))
                tail_bytes = log._tail_bytes + BASE_RECORD_BYTES
                npages = -(-tail_bytes // PAGE_SIZE)  # >= 1: tail is non-empty
                head = log._head_lba
                if head + npages > log_capacity:
                    head = 0  # circular log; old segments recycled
                head += npages
                log_device._next_write_lba = head
                log._head_lba = head
                durable_extend(tail)
                log.flushed_lsn = lsn
                tail.clear()
                log._tail_bytes = 0
                log.forces += 1
        policy._next_tick = t
        self._ti = ti
        self._ri = ri
        self._events += events
        self._transactions += 1
        runner._op_index += events
        runner._arg_index += nargs
        runner._tx_index = tx_index + 1

    # -- telemetry -----------------------------------------------------------

    def batch_stats(self) -> dict[str, int | bool]:
        """Whole-replay kernel totals (harness telemetry, not simulated)."""
        return {
            "vectorized": self._vector,
            "runs": self._runs,
            "batched_reads": self._batched_reads,
            "scalar_reads": self._scalar_reads,
            "events": self._events,
            "transactions": self._transactions,
        }

    def publish_stats(self) -> None:
        """Publish ``replay.kernel.*`` metrics (idempotent via watermarks).

        Totals cover the whole replay (warm-up included): the counters are
        machinery telemetry in the ``replay.`` namespace, which the parity
        suite excludes by construction.
        """
        if not OBS.enabled:
            return
        OBS.gauge("replay.kernel.vectorized").set(1.0 if self._vector else 0.0)
        published = self._published
        for name, value in (
            ("replay.kernel.runs", self._runs),
            ("replay.kernel.batched_reads", self._batched_reads),
            ("replay.kernel.scalar_reads", self._scalar_reads),
            ("replay.kernel.events", self._events),
            ("replay.kernel.transactions", self._transactions),
        ):
            delta = value - published.get(name, 0)
            if delta:
                OBS.counter(name).inc(delta)
            published[name] = value

    def accumulate_totals(self) -> None:
        """Fold this kernel's batch totals into the process-wide tally.

        Called once per replayed cell (see ``replay_cell``) so front ends
        can report kernel effectiveness for a whole sweep without keeping
        the per-cell runners alive — and without OBS enabled.
        """
        _TOTALS["cells"] += 1
        _TOTALS["runs"] += self._runs
        _TOTALS["batched_reads"] += self._batched_reads
        _TOTALS["scalar_reads"] += self._scalar_reads
        _TOTALS["events"] += self._events
        _TOTALS["transactions"] += self._transactions


#: Process-wide kernel tally across every replayed cell (parent process
#: only — pool workers accumulate in their own processes and are not
#: merged; front ends report this for the serial replays they drove).
_TOTALS: dict[str, int] = {
    "cells": 0,
    "runs": 0,
    "batched_reads": 0,
    "scalar_reads": 0,
    "events": 0,
    "transactions": 0,
}


def kernel_totals() -> dict[str, int | bool]:
    """Snapshot of the process-wide kernel tally plus the active path."""
    totals: dict[str, int | bool] = dict(_TOTALS)
    totals["vectorized"] = numpy_active()
    return totals


def reset_kernel_totals() -> None:
    """Zero the process-wide tally (tests / benchmark passes)."""
    for name in _TOTALS:
        _TOTALS[name] = 0
