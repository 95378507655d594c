"""Array helpers for boundary traces, vectorized when numpy is installed.

:func:`remap_trace_args` pushes a trace's page operands through a page-id
table for :mod:`repro.sim.retarget`; :func:`numpy_active` says whether it
takes the numpy path (``perf/bench.py`` prints it in its run header).
numpy is optional (the ``fast`` extra) and is not on the replay path: the
replay loops live in :mod:`repro.sim.replay` and use nothing from here
(DESIGN.md §12).
"""

from __future__ import annotations

from array import array

from repro.sim.trace import (
    OP_READ,
    OP_TXEND,
    OP_UPDATE,
    PAYLOAD_BITS as _PAYLOAD_BITS,
    PAYLOAD_MASK as _PAYLOAD_MASK,
)

try:  # numpy is optional (the ``fast`` extra)
    import numpy as _np
except ImportError:
    _np = None


def numpy_active() -> bool:
    """True when numpy is importable, i.e. the remap below is vectorized."""
    return _np is not None


def remap_trace_args(ops, args, table, start_op: int = 0, start_arg: int = 0):
    """Remap the page operands of a trace suffix through a page-id ``table``.

    ``table`` maps every donor page id to its target page id (``table[p]``),
    as built by :func:`repro.sim.retarget.build_remap_table`.  READ operands
    are page ids and remap directly; UPDATE operands pack
    ``(page_id << PAYLOAD_BITS) | payload`` and remap only the page half;
    TXEND operands (transaction kind/outcome) pass through untouched.

    Vectorized under numpy (zero-copy ``frombuffer`` views, one cumsum to
    find each event's operand slot); the pure-``array`` fallback walks the
    suffix once.
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
