"""The boundary-trace codec and shared-memory trace segments.

The **boundary-trace codec** (:func:`encode_boundary` /
:func:`decode_boundary`) is the compressed wire format for the logical
page-access stream the replay fast path records (:mod:`repro.sim.replay`).
The raw encoding is one opcode byte plus one signed 64-bit operand per
operand-carrying event; the codec shrinks it by run-length-encoding hot
opcode sequences, delta-encoding page ids as zigzag varints against the
previous page touched (in the spirit of Page-Differential Logging's delta
pages — see DESIGN.md §10), and deflating the result.  Decoding is
**bit-exact**: the original arrays are reconstructed verbatim, so a replay
from a compressed persistent trace is bit-identical to one from the live
recorder — a property pinned by the replay parity suite.

A device's own I/O pattern needs no trace: its
:class:`~repro.storage.device.IOStats` counts operations and pages by
kind (sequential or random, read or write).
"""

from __future__ import annotations

import zlib
from array import array

from repro.errors import TraceCodecError

# -- boundary-trace event alphabet -------------------------------------------
#
# The opcode alphabet of the logical boundary stream the replay fast path
# records (see :mod:`repro.sim.replay` for the event semantics).  It lives
# here, next to the wire format, so the codec and the recorder share one
# definition.

OP_BEGIN = 0
OP_READ = 1
OP_UPDATE = 2
OP_COMMIT = 3
OP_ABORT = 4
OP_TXEND = 5
#: A re-read of the page the immediately preceding event read; carries no
#: operand (see the replay module for the DRAM-hit replay contract).
OP_READ_DUP = 6

#: ``UPDATE`` packs (page_id << PAYLOAD_BITS) | payload_bytes in one operand.
PAYLOAD_BITS = 21
PAYLOAD_MASK = (1 << PAYLOAD_BITS) - 1

#: Opcodes that carry one operand in the ``args`` array.
OPS_WITH_ARGS = frozenset({OP_READ, OP_UPDATE, OP_TXEND})


# -- boundary-trace codec ----------------------------------------------------
#
# Wire format (all integers are LEB128 varints; signed values are zigzag
# mapped first):
#
#   magic  b"BTC1"
#   uvarint n_ops, uvarint n_args
#   deflate-compressed body:
#     opcode section — run-length tokens, one byte each:
#         token = (count << 3) | opcode     for runs of 1..30
#         count field 31 escapes to "31 + uvarint" for longer runs
#     operand section — one entry per operand-carrying event, in order:
#         READ    zigzag varint of (page - previous_page)
#         UPDATE  zigzag varint of (page - previous_page), uvarint payload
#         TXEND   uvarint meta
#     ``previous_page`` starts at 0 and tracks the page of the last READ or
#     UPDATE, mirroring the workload's locality (index descent, then heap
#     page, then the same heap page's neighbours), which is what makes the
#     deltas short.
#
# The opcode RLE targets the stream's hot sequences (bursts of READs inside
# a descent, UPDATE chains from multi-row statements and abort undo); the
# delta layer targets the operands, which dominate the raw size at 8 bytes
# each.  Deflate then squeezes the remaining entropy.  Encoding never loses
# information: decode reconstructs both arrays verbatim.

_BT_MAGIC = b"BTC1"
#: Opcode-token run lengths 1..30 are inline; 31 escapes to a varint.
_RUN_ESCAPE = 31


def _append_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise TraceCodecError("truncated varint in boundary trace") from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise TraceCodecError("oversized varint in boundary trace")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def raw_boundary_bytes(ops: array, args: array) -> int:
    """Size of the uncompressed encoding (1 B/opcode + 8 B/operand)."""
    return len(ops) * ops.itemsize + len(args) * args.itemsize


def boundary_checksum(ops: array, args: array) -> int:
    """CRC-32 over the raw arrays; the persistent cache stores it so a
    decoded trace can be verified byte-for-byte against what was saved."""
    return zlib.crc32(args.tobytes(), zlib.crc32(ops.tobytes()))


def encode_boundary(ops: array, args: array) -> bytes:
    """Compress a boundary event stream; see the wire format above."""
    expected = sum(1 for op in ops if op in OPS_WITH_ARGS)
    if expected != len(args):
        raise TraceCodecError(
            f"operand count mismatch: stream describes {expected} operands, "
            f"args array holds {len(args)}"
        )
    body = bytearray()
    # Opcode section: RLE over the hot sequences.
    n = len(ops)
    i = 0
    while i < n:
        op = ops[i]
        run = 1
        while i + run < n and ops[i + run] == op:
            run += 1
        i += run
        if run < _RUN_ESCAPE:
            body.append((run << 3) | op)
        else:
            body.append((_RUN_ESCAPE << 3) | op)
            _append_uvarint(body, run - _RUN_ESCAPE)
    # Operand section: page-id deltas + small scalars.
    previous_page = 0
    ai = 0
    for op in ops:
        if op == OP_READ:
            page = args[ai]
            ai += 1
            _append_uvarint(body, _zigzag(page - previous_page))
            previous_page = page
        elif op == OP_UPDATE:
            packed = args[ai]
            ai += 1
            page = packed >> PAYLOAD_BITS
            _append_uvarint(body, _zigzag(page - previous_page))
            _append_uvarint(body, packed & PAYLOAD_MASK)
            previous_page = page
        elif op == OP_TXEND:
            _append_uvarint(body, args[ai])
            ai += 1
    out = bytearray(_BT_MAGIC)
    _append_uvarint(out, len(ops))
    _append_uvarint(out, len(args))
    out += zlib.compress(bytes(body), 6)
    return bytes(out)


def decode_boundary(data: bytes) -> tuple[array, array]:
    """Inverse of :func:`encode_boundary`; bit-exact reconstruction.

    Raises :class:`~repro.errors.TraceCodecError` on any malformation —
    bad magic, truncation, corrupt deflate stream, or counts that do not
    add up — so callers can treat a damaged persistent trace as absent
    rather than replaying garbage.
    """
    if data[: len(_BT_MAGIC)] != _BT_MAGIC:
        raise TraceCodecError("boundary trace magic mismatch")
    n_ops, pos = _read_uvarint(data, len(_BT_MAGIC))
    n_args, pos = _read_uvarint(data, pos)
    try:
        body = zlib.decompress(data[pos:])
    except zlib.error as exc:
        raise TraceCodecError(f"corrupt boundary-trace body: {exc}") from None
    ops = array("B")
    pos = 0
    while len(ops) < n_ops:
        try:
            token = body[pos]
        except IndexError:
            raise TraceCodecError("truncated opcode section") from None
        pos += 1
        op = token & 7
        if op > OP_READ_DUP:
            raise TraceCodecError(f"unknown opcode {op} in boundary trace")
        run = token >> 3
        if run == _RUN_ESCAPE:
            extra, pos = _read_uvarint(body, pos)
            run += extra
        elif run == 0:
            raise TraceCodecError("zero-length opcode run")
        ops.extend([op] * run)
    if len(ops) != n_ops:
        raise TraceCodecError(
            f"opcode runs decode to {len(ops)} events, header says {n_ops}"
        )
    args = array("q")
    previous_page = 0
    for op in ops:
        if op == OP_READ:
            delta, pos = _read_uvarint(body, pos)
            previous_page += _unzigzag(delta)
            args.append(previous_page)
        elif op == OP_UPDATE:
            delta, pos = _read_uvarint(body, pos)
            payload, pos = _read_uvarint(body, pos)
            previous_page += _unzigzag(delta)
            if payload > PAYLOAD_MASK:
                raise TraceCodecError(f"payload {payload} exceeds encoding limit")
            args.append((previous_page << PAYLOAD_BITS) | payload)
        elif op == OP_TXEND:
            meta, pos = _read_uvarint(body, pos)
            args.append(meta)
    if len(args) != n_args or pos != len(body):
        raise TraceCodecError(
            f"operand section decodes to {len(args)} operands / {pos} bytes, "
            f"header says {n_args} operands / {len(body)} bytes"
        )
    return ops, args


# -- zero-copy shared boundary traces ----------------------------------------
#
# One decoded trace, N replaying workers (ISSUE 6 tentpole).  The parent
# publishes the two flat arrays into one POSIX shared-memory segment
# (opcode bytes, then the operand words); workers attach read-only views
# and replay straight out of the buffer — no per-worker decode, no copy.
# Crash cells need nothing special: their kill-point truncation is just a
# smaller prefix of the same arrays.
#
# Ownership protocol:
#
# * The *parent* owns every segment it publishes.  A handle is refcounted
#   (``acquire``/``release``) by the sweeps that hand it to workers;
#   the last release unlinks.  A module ``atexit`` hook force-unlinks
#   anything still owned, so an exception (or plain exit) between publish
#   and release can never leak ``/dev/shm`` space.
# * *Workers* only ever attach.  Attaching is explicitly unregistered from
#   ``multiprocessing.resource_tracker`` (Python < 3.13 registers attached
#   segments too, and the tracker would unlink a segment other workers are
#   still replaying from when the first one exits).
# * ``unlink`` is idempotent and tolerates an already-removed segment, so
#   the refcount path, the ``finally`` in the sweep engine and the atexit
#   hook can all fire without stepping on each other.

_SHM_PREFIX = "repro-bt-"

#: Segments this process created and has not yet unlinked (name -> handle).
_OWNED: dict[str, "SharedTraceHandle"] = {}

_SHM_SEQ = 0


def _next_shm_name() -> str:
    global _SHM_SEQ
    _SHM_SEQ += 1
    import os as _os

    return f"{_SHM_PREFIX}{_os.getpid()}-{_SHM_SEQ}"


class SharedTraceHandle:
    """Picklable, refcounted handle to a published boundary trace.

    The pickled form carries only the segment name and the array lengths;
    the owning :class:`~multiprocessing.shared_memory.SharedMemory` object
    never crosses the process boundary.  Equality/hash are identity — the
    handle is a capability, not a value.
    """

    def __init__(
        self, name: str, n_ops: int, n_args: int, n_transactions: int
    ) -> None:
        self.name = name
        self.n_ops = n_ops
        self.n_args = n_args
        self.n_transactions = n_transactions
        self._shm = None  # owner side only
        self._refs = 0

    def __getstate__(self):
        return (self.name, self.n_ops, self.n_args, self.n_transactions)

    def __setstate__(self, state) -> None:
        self.name, self.n_ops, self.n_args, self.n_transactions = state
        self._shm = None
        self._refs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedTraceHandle({self.name!r}, n_ops={self.n_ops}, "
            f"n_args={self.n_args}, n_transactions={self.n_transactions})"
        )

    # -- owner side ----------------------------------------------------------

    def acquire(self) -> "SharedTraceHandle":
        """Take a reference (owner side); pairs with :meth:`release`."""
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop a reference; the last release unlinks the segment."""
        self._refs -= 1
        if self._refs <= 0:
            self.unlink()

    def unlink(self) -> None:
        """Destroy the segment now (idempotent; tolerates prior removal)."""
        shm = self._shm
        self._shm = None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover - races
                pass
        _OWNED.pop(self.name, None)

    # -- worker side ---------------------------------------------------------

    def attach(self) -> "SharedBoundaryTrace":
        """Map the published segment read-only (worker side).

        Raises ``OSError`` (typically ``FileNotFoundError``) when the
        segment no longer exists — callers treat that as "shared path
        unavailable" and fall back.
        """
        from multiprocessing import resource_tracker, shared_memory

        # Python < 3.13 registers *attached* segments with the resource
        # tracker as if this process owned them.  Whether that needs
        # undoing depends on whose tracker this process talks to:
        #
        # * A *forked* worker inherits the parent's tracker connection, and
        #   the tracker's cache is a per-name set — the attach-time
        #   re-register is a no-op on the parent's create-time entry, and
        #   an unregister here would strip that entry (breaking the
        #   crash backstop and making sibling unregisters error).  Leave
        #   an inherited tracker alone.
        # * A worker with *no* tracker connection yet (spawn start method)
        #   starts a private tracker during the attach; that tracker would
        #   unlink the segment when the worker exits, destroying it for
        #   everyone else — unregister immediately.
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        inherited = tracker is not None and getattr(tracker, "_fd", None) is not None
        shm = shared_memory.SharedMemory(name=self.name)
        if not inherited:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
        return SharedBoundaryTrace(shm, self.n_ops, self.n_args, self.n_transactions)


class SharedBoundaryTrace:
    """A read-only :class:`BoundaryTrace` twin over an attached segment.

    ``ops``/``args`` are zero-copy memoryviews into the shared buffer with
    the exact indexing/len semantics the replay loops use on the
    array-backed trace; replaying from one is bit-identical to replaying
    from the original arrays.
    """

    __slots__ = ("ops", "args", "n_transactions", "_shm")

    def __init__(self, shm, n_ops: int, n_args: int, n_transactions: int) -> None:
        self._shm = shm
        buf = shm.buf
        self.ops = buf[:n_ops]
        self.args = buf[n_ops : n_ops + 8 * n_args].cast("q")
        self.n_transactions = n_transactions

    def __len__(self) -> int:
        return len(self.ops)

    def close(self) -> None:
        """Release the views and unmap (tests; workers just exit)."""
        ops, args, shm = self.ops, self.args, self._shm
        self.ops = self.args = self._shm = None
        if ops is not None:
            ops.release()
        if args is not None:
            args.release()
        if shm is not None:
            shm.close()

    def __del__(self) -> None:
        # Views must die before the mapping: plain garbage collection
        # finalizes the SharedMemory in arbitrary order relative to the
        # exported ops/args views, and mmap refuses to close under live
        # exports.  Ordering the teardown here keeps interpreter shutdown
        # (and dropped worker attachments) silent.
        try:
            self.close()
        except Exception:  # pragma: no cover - shutdown best-effort
            pass


def publish_boundary_trace(trace) -> SharedTraceHandle | None:
    """Publish a boundary trace into shared memory; ``None`` on fallback.

    Copies the flat arrays once.  Returns ``None`` when shared memory is
    unavailable (no ``multiprocessing.shared_memory`` support, permission
    or space errors) — callers then keep the per-worker path.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython 3.8+
        return None
    n_ops = len(trace.ops)
    n_args = len(trace.args)
    size = max(1, n_ops + 8 * n_args)
    shm = None
    try:
        for _ in range(8):  # name collisions only after a pid wraps
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=size, name=_next_shm_name()
                )
                break
            except FileExistsError:
                continue
        else:
            return None
    except (OSError, ValueError):
        return None
    buf = shm.buf
    if n_ops:
        buf[:n_ops] = memoryview(trace.ops).cast("B")
    if n_args:
        buf[n_ops : n_ops + 8 * n_args] = memoryview(trace.args).cast("B")
    handle = SharedTraceHandle(shm.name, n_ops, n_args, trace.n_transactions)
    handle._shm = shm
    _OWNED[shm.name] = handle
    return handle


def _unlink_owned_segments() -> None:  # pragma: no cover - exercised at exit
    for handle in list(_OWNED.values()):
        handle.unlink()


import atexit as _atexit

_atexit.register(_unlink_owned_segments)


def leaked_shared_segments() -> list[str]:
    """Names of this library's segments still present in ``/dev/shm``.

    Empty off Linux (no ``/dev/shm``).  The benchmark recorder and CI use
    this to assert the ownership protocol actually cleaned up.
    """
    import os as _os

    try:
        entries = _os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(_SHM_PREFIX))
