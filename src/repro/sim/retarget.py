"""Cross-scale trace retargeting: one recorded workload drives every scale.

A boundary trace (:mod:`repro.sim.replay`) is keyed by ``(scale, seed)``:
the page ids it carries live in that scale's page universe.  Recording is
the dominant cold cost of a sweep, and historically every scale paid it.
This module removes that: given a **donor** trace recorded at scale S and a
**target** scale T whose database is no larger, it remaps every page
operand onto T's page universe at replay time, so one long BENCH-scale
recording serves TINY-sized grids (and any other compatible scale) with no
per-``(scale, seed)`` re-recording.

The remap is *structural*, not modular.  The loader allocates tables and
indexes in a fixed order independent of cardinalities
(:func:`repro.tpcc.scale.page_geometry`), so both scales expose the same
ordered sequence of page segments.  Each donor page maps affinely within
its segment::

    target = first_T + (page - first_S) * n_T // n_S

which preserves the segment a page belongs to and its relative position
inside that segment — a NURand-hot head of the donor's customer range
stays the head of the target's customer range.  Compression only
(``n_T <= n_S`` per segment): expanding a trace onto a larger universe
would leave pages no recorded transaction can touch.

Two parity tiers, both CI-gated:

* **identity** — retargeting a trace onto its own scale builds an identity
  table, and replay is bit-identical to the direct path (pinned in
  ``tests/test_retarget.py``);
* **statistical** — a downscaled replay cannot be bit-identical to a
  native recording (different RNG consumption per transaction), so
  :func:`verify_retarget` compares per-table access-frequency
  distributions (share + per-segment decile histogram) and steady-state
  hit ratios between a retargeted and a natively recorded replay at T,
  within declared tolerances (``python -m repro retarget --verify``).

``REPRO_REPLAY_RETARGET=0`` disables automatic donor pickup; explicit
``trace_donor`` requests still work, failing loudly on incompatibility.
"""

from __future__ import annotations

import os
import time
from array import array
from functools import lru_cache
from typing import Any

from repro.errors import ConfigError, TraceCodecError
from repro.obs import OBS
from repro.sim.kernel import remap_trace_args
from repro.sim.replay import (
    BoundaryTrace,
    TraceRecorder,
    cached_trace_exists,
    get_recorder,
    has_recorder,
    list_cached_traces,
)
from repro.sim.trace import (
    OP_READ,
    OP_TXEND,
    OP_UPDATE,
    PAYLOAD_BITS as _PAYLOAD_BITS,
)
from repro.tpcc.scale import ScaleProfile, page_geometry
from repro.workload.registry import TPCC_SPEC, WorkloadSpec, get_workload_entry

try:  # numpy is optional (the ``fast`` extra)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the array fallback
    _np = None


def retarget_enabled() -> bool:
    """The ``REPRO_REPLAY_RETARGET`` gate (default on; ``0``/``off`` disables).

    Gates only *automatic* donor discovery; an explicit ``trace_donor`` on a
    spec or experiment is always honoured (the caller asked for it).
    """
    value = os.environ.get("REPRO_REPLAY_RETARGET")
    if value is None:
        return True
    return value.strip().lower() not in {"0", "off", "no", "false"}


# -- compatibility & remap table ----------------------------------------------


def retarget_incompatibility(
    donor: ScaleProfile, target: ScaleProfile
) -> str | None:
    """Why ``donor`` cannot drive ``target``, or ``None`` when it can.

    Compatible means: identical ordered segment-name sequence (always true
    for profiles built by the standard loader) and no target segment larger
    than the donor's — the affine remap compresses, never stretches.
    """
    donor_segments = page_geometry(donor)
    target_segments = page_geometry(target)
    if [s.name for s in donor_segments] != [s.name for s in target_segments]:
        return "segment layouts differ (different schema or loader version)"
    for donor_seg, target_seg in zip(donor_segments, target_segments):
        if target_seg.n_pages > donor_seg.n_pages:
            return (
                f"target segment {target_seg.name!r} has {target_seg.n_pages} "
                f"pages but the donor only {donor_seg.n_pages} — retargeting "
                f"only compresses (T <= S)"
            )
    return None


def retarget_compatible(donor: ScaleProfile, target: ScaleProfile) -> bool:
    """True when a trace recorded at ``donor`` can drive ``target``."""
    return retarget_incompatibility(donor, target) is None


@lru_cache(maxsize=None)
def build_remap_table(donor: ScaleProfile, target: ScaleProfile):
    """Donor-page-id -> target-page-id lookup table (``array('q')``).

    One entry per donor page; segment-affine as described in the module
    docstring.  ``donor == target`` yields the identity table.  Cached per
    scale pair (geometries are tiny; the table is one int per donor page).
    """
    reason = retarget_incompatibility(donor, target)
    if reason is not None:
        raise ConfigError(f"cannot retarget {donor!r} -> {target!r}: {reason}")
    donor_segments = page_geometry(donor)
    target_segments = page_geometry(target)
    total = donor_segments[-1].end_page
    if _np is not None:
        out = _np.empty(total, dtype=_np.int64)
        for donor_seg, target_seg in zip(donor_segments, target_segments):
            offsets = _np.arange(donor_seg.n_pages, dtype=_np.int64)
            out[donor_seg.first_page:donor_seg.end_page] = (
                target_seg.first_page
                + (offsets * target_seg.n_pages) // donor_seg.n_pages
            )
        table = array("q")
        table.frombytes(out.tobytes())
        return table
    return array(
        "q",
        (
            target_seg.first_page + (offset * target_seg.n_pages) // donor_seg.n_pages
            for donor_seg, target_seg in zip(donor_segments, target_segments)
            for offset in range(donor_seg.n_pages)
        ),
    )


# -- retargeted recorder ------------------------------------------------------


class RetargetedTraceRecorder:
    """Recorder facade serving a *target* scale from a *donor* recording.

    Quacks like :class:`~repro.sim.replay.TraceRecorder` for everything a
    replay touches (``scale``/``seed``/``trace``/``ensure``/
    ``longest_trace``) but never records at the target scale: ``ensure``
    pulls transactions from the donor source and remaps the new suffix
    through the scale pair's lookup table — vectorized under numpy,
    pure-``array`` otherwise — appending to its own :class:`BoundaryTrace`
    so downstream machinery (shared-memory publication, warm forks) works
    unchanged.

    The donor source is resolved lazily: a live donor recorder if one
    exists, else the persisted donor trace.  A replay outrunning the
    persisted file escalates to a live donor recorder (which prefix-
    validates the same file); if the live stream diverges from the prefix
    already remapped, the recorder fails closed with
    :class:`~repro.errors.TraceCodecError` rather than splicing two
    incompatible recordings.

    ``fork_token`` keys the warm-fork cache: a retargeted trace at T is a
    different byte stream than a native recording at T, so their post-warm
    states must never be interchanged.

    Retargeting is defined over the TPC-C loader's page geometry
    (:func:`repro.tpcc.scale.page_geometry` probes the TPC-C schema), so a
    retargeted recorder is always a ``tpcc`` trace source — other
    workloads resolve to fresh native recorders (see
    :func:`resolve_recorder` and DESIGN.md §14).
    """

    #: The workload identity every retargeted stream carries (tpcc-only).
    workload = TPCC_SPEC

    def __init__(
        self, scale: ScaleProfile, seed: int, donor_scale: ScaleProfile
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.donor_scale = donor_scale
        self.tx_kinds = get_workload_entry(TPCC_SPEC.name).tx_kinds
        self.trace = BoundaryTrace()
        self.fork_token = f"retarget<-{donor_scale!r}"
        self.remap_seconds = 0.0
        self._table = build_remap_table(donor_scale, scale)
        self._live: TraceRecorder | None = None
        self._persisted: BoundaryTrace | None = None
        self._persisted_missing = False
        self._ops_done = 0
        self._args_done = 0

    # -- donor resolution ----------------------------------------------------

    def _load_persisted(self) -> BoundaryTrace | None:
        if self._persisted is None and not self._persisted_missing:
            from repro.sim.replay import _cache_key, _load_trace, trace_cache_dir

            directory = trace_cache_dir()
            if directory is not None:
                # Donor lookups are workload-keyed: only a tpcc trace can
                # serve a retargeted (tpcc-only) stream.
                token = TPCC_SPEC.token
                path = directory / _cache_key(self.donor_scale, self.seed, token)
                self._persisted = _load_trace(
                    path, self.donor_scale, self.seed, token
                )
            self._persisted_missing = self._persisted is None
        return self._persisted

    def _donor_trace(self, n_transactions: int) -> BoundaryTrace:
        if self._live is None and has_recorder(self.donor_scale, self.seed):
            # A live donor supersedes the persisted file: it validates (or
            # rejects) that same file itself and can extend past it.
            self._live = get_recorder(self.donor_scale, self.seed)
        if self._live is not None:
            return self._live.ensure(n_transactions)
        persisted = self._load_persisted()
        if persisted is not None and persisted.n_transactions >= n_transactions:
            return persisted
        # Replay outran the persisted donor (or there was none): escalate to
        # a real donor recorder.  Its own cache validation decides whether
        # the file's prefix is still what current code records.
        live = self._live = get_recorder(self.donor_scale, self.seed)
        trace = live.ensure(n_transactions)
        if persisted is not None and self._ops_done:
            if (
                trace.ops[: self._ops_done] != persisted.ops[: self._ops_done]
                or trace.args[: self._args_done]
                != persisted.args[: self._args_done]
            ):
                raise TraceCodecError(
                    f"persisted donor trace for {self.donor_scale!r} seed "
                    f"{self.seed} diverges from a fresh recording; the "
                    f"already-remapped prefix cannot be trusted"
                )
        self._persisted = None
        return trace

    # -- remapping -----------------------------------------------------------

    def _remap_from(self, donor_trace: BoundaryTrace) -> None:
        start_op = self._ops_done
        end_op = len(donor_trace.ops)
        if end_op <= start_op:
            return
        t0 = time.perf_counter()
        new_args = remap_trace_args(
            donor_trace.ops, donor_trace.args, self._table, start_op, self._args_done
        )
        trace = self.trace
        trace.ops.extend(donor_trace.ops[start_op:])
        trace.args.extend(new_args)
        remapped_tx = donor_trace.n_transactions - trace.n_transactions
        trace.n_transactions = donor_trace.n_transactions
        self._ops_done = end_op
        self._args_done = len(donor_trace.args)
        self.remap_seconds += time.perf_counter() - t0
        if OBS.enabled:
            OBS.counter("replay.retarget.remapped_events").inc(end_op - start_op)
            OBS.counter("replay.retarget.remapped_transactions").inc(remapped_tx)

    # -- TraceRecorder protocol ----------------------------------------------

    def ensure(self, n_transactions: int) -> BoundaryTrace:
        """Return the retargeted trace covering at least ``n_transactions``."""
        if self.trace.n_transactions < n_transactions:
            self._remap_from(self._donor_trace(n_transactions))
        return self.trace

    def longest_trace(self) -> BoundaryTrace:
        """Remap everything the donor already knows, recording nothing."""
        if self._live is None and has_recorder(self.donor_scale, self.seed):
            self._live = get_recorder(self.donor_scale, self.seed)
        if self._live is not None:
            self._remap_from(self._live.longest_trace())
        else:
            persisted = self._load_persisted()
            if persisted is not None:
                self._remap_from(persisted)
        return self.trace

    def save_cache(self) -> bool:
        """Retargeted traces are derived state: never persisted (re-deriving
        from the donor is cheaper than a decode and avoids a target-keyed
        file masquerading as a native recording)."""
        return False

    @property
    def _saved_transactions(self) -> int:
        return self.trace.n_transactions


#: Per-process registry, mirroring ``replay._RECORDERS``; cleared with it.
_RETARGETED: dict[
    tuple[ScaleProfile, int, ScaleProfile], RetargetedTraceRecorder
] = {}


def retargeted_recorder(
    scale: ScaleProfile, seed: int, donor_scale: ScaleProfile
) -> RetargetedTraceRecorder:
    key = (scale, seed, donor_scale)
    recorder = _RETARGETED.get(key)
    if recorder is None:
        recorder = _RETARGETED[key] = RetargetedTraceRecorder(
            scale, seed, donor_scale
        )
    return recorder


def live_retargeted(
    scale: ScaleProfile, seed: int, donor_scale: ScaleProfile | None = None
) -> bool:
    """True when a retargeted recorder for (scale, seed[, donor]) is live."""
    if donor_scale is not None:
        return (scale, seed, donor_scale) in _RETARGETED
    return any(key[0] == scale and key[1] == seed for key in _RETARGETED)


def clear_retargeted() -> None:
    """Drop all retargeted recorders (tests; via ``replay.clear_recorders``)."""
    _RETARGETED.clear()


# -- donor discovery & resolution ---------------------------------------------


def find_donor_scale(scale: ScaleProfile, seed: int) -> ScaleProfile | None:
    """Largest compatible donor with a sunk recording for ``seed``.

    Scans live recorders first (no decode needed), then the persisted-trace
    cache headers.  "Largest" means most database pages — the donor that
    compresses least onto the target.  Only ``tpcc`` recordings qualify:
    retargeting is defined over the TPC-C page geometry, and a donor of
    any other workload is a different stream entirely.  Returns ``None``
    when nothing compatible exists; the caller then falls back to native
    recording.
    """
    from repro.sim.replay import _RECORDERS
    from repro.tpcc.loader import estimate_db_pages

    candidates: list[tuple[int, int, str, ScaleProfile]] = []
    for donor_scale, donor_seed, donor_workload in _RECORDERS:
        if (
            donor_seed == seed
            and donor_workload == TPCC_SPEC
            and donor_scale != scale
            and retarget_compatible(donor_scale, scale)
        ):
            candidates.append(
                (estimate_db_pages(donor_scale), 1, repr(donor_scale), donor_scale)
            )
    for entry in list_cached_traces():
        donor_scale = entry.get("scale_profile")
        if (
            donor_scale is not None
            and entry.get("seed") == seed
            and entry.get("workload") == TPCC_SPEC.token
            and donor_scale != scale
            and retarget_compatible(donor_scale, scale)
        ):
            candidates.append(
                (estimate_db_pages(donor_scale), 0, repr(donor_scale), donor_scale)
            )
    if not candidates:
        return None
    return max(candidates)[3]


def resolve_recorder(
    scale: ScaleProfile,
    seed: int,
    donor_scale: ScaleProfile | None = None,
    workload: WorkloadSpec | None = None,
):
    """The trace source for (scale, seed, workload): exact key first,
    else retarget.

    Resolution order:

    * an explicit ``donor_scale`` (``CellSpec.trace_donor`` /
      ``ExperimentConfig.trace_donor``) always wins — ``donor == scale``
      degenerates to the native recorder;
    * a live or persisted native trace for the exact
      ``(scale, seed, workload)``;
    * with retargeting enabled, the largest compatible donor already sunk
      for this seed;
    * otherwise a fresh native recorder (records on demand).

    Donor traces are ``tpcc`` streams by construction, so any non-tpcc
    workload **fails closed** to its own native recorder: a ``tpcc``
    donor can never silently serve a ``ycsb`` (or ``tpch-scan``) cell.
    An *explicit* donor request for such a cell is a configuration error.
    """
    workload = TPCC_SPEC if workload is None else workload
    if workload != TPCC_SPEC:
        if donor_scale is not None and donor_scale != scale:
            raise ConfigError(
                f"trace_donor requires the tpcc workload; workload "
                f"{workload.token!r} records natively"
            )
        return get_recorder(scale, seed, workload)
    if donor_scale is not None and donor_scale != scale:
        reason = retarget_incompatibility(donor_scale, scale)
        if reason is not None:
            raise ConfigError(
                f"trace_donor {donor_scale!r} cannot drive {scale!r}: {reason}"
            )
        return retargeted_recorder(scale, seed, donor_scale)
    if (
        has_recorder(scale, seed)
        or cached_trace_exists(scale, seed)
        or not retarget_enabled()
    ):
        return get_recorder(scale, seed)
    found = find_donor_scale(scale, seed)
    if found is None:
        return get_recorder(scale, seed)
    if OBS.enabled:
        OBS.counter("replay.retarget.auto_donor").inc()
    return retargeted_recorder(scale, seed, found)


def replay_source_exists(
    scale: ScaleProfile,
    seed: int,
    donor_scale: ScaleProfile | None = None,
    workload: WorkloadSpec | None = None,
) -> bool:
    """Is a usable trace source already sunk for this group?

    The sweep engine's replay-economics probe: a lone cell is worth
    replaying only when no fresh recording would be needed.  Covers live
    and persisted native traces, live retargeted recorders, and (donor or
    auto) donor recordings.  Non-tpcc workloads only ever have native
    sources (donors are tpcc streams).
    """
    workload = TPCC_SPEC if workload is None else workload
    if workload != TPCC_SPEC:
        return has_recorder(scale, seed, workload) or cached_trace_exists(
            scale, seed, workload
        )
    if donor_scale is not None and donor_scale != scale:
        return retarget_compatible(donor_scale, scale) and (
            has_recorder(donor_scale, seed)
            or cached_trace_exists(donor_scale, seed)
            or live_retargeted(scale, seed, donor_scale)
        )
    if has_recorder(scale, seed) or cached_trace_exists(scale, seed):
        return True
    if not retarget_enabled():
        return False
    return live_retargeted(scale, seed) or find_donor_scale(scale, seed) is not None


# -- statistical verification -------------------------------------------------

#: Declared tolerances for the statistical parity tier, calibrated against
#: the measured TINY<-BENCH reference pair at seed 42 / 1500 transactions:
#: worst per-table share delta 0.044 (order_line), access-weighted mean
#: decile total-variation 0.16, hit-ratio deltas within 0.012.  The decile
#: gate is access-weighted rather than per-segment because append-only
#: tables (history, orders, order_line, new_order) *cannot* match
#: point-wise across scales: N transactions fill a far larger fraction of
#: a small scale's growth region than of a large one's, so the recency
#: profile shifts even though the remap is exact.  A scrambled remap still
#: fails the weighted gate — it pushes the dominant fixed-content segments
#: (stock, item, customer) toward TV ~0.9, lifting the mean far past the
#: threshold.
TABLE_SHARE_TOLERANCE = 0.06
DECILE_TOLERANCE = 0.25
HIT_RATE_TOLERANCE = 0.05
#: Segments below this access share are skipped by the decile gate: a
#: handful of accesses cannot populate a stable 10-bucket histogram.
PROFILE_MIN_SHARE = 0.01


def _access_pages(trace: BoundaryTrace, n_transactions: int) -> array:
    """Page ids of every READ/UPDATE in the first ``n_transactions``."""
    ops, args = trace.ops, trace.args
    pages = array("q")
    slot = 0
    remaining = n_transactions
    for op in ops:
        if op == OP_READ:
            pages.append(args[slot])
            slot += 1
        elif op == OP_UPDATE:
            pages.append(args[slot] >> _PAYLOAD_BITS)
            slot += 1
        elif op == OP_TXEND:
            slot += 1
            remaining -= 1
            if remaining == 0:
                break
    return pages


def access_profile(
    trace: BoundaryTrace,
    scale: ScaleProfile,
    n_transactions: int,
    deciles: int = 10,
) -> dict[str, Any]:
    """Per-segment access shares and positional decile histograms.

    The decile histogram buckets each access by its relative position
    inside its segment's page range — the shape NURand skew imposes — so a
    remap that scrambled hot zones would show up even if segment shares
    stayed right.
    """
    pages = _access_pages(trace, n_transactions)
    segments = page_geometry(scale)
    total = len(pages)
    profile: dict[str, Any] = {"accesses": total, "segments": {}}
    counts = {segment.name: 0 for segment in segments}
    histograms = {segment.name: [0] * deciles for segment in segments}
    bounds = [(segment.first_page, segment.end_page, segment.name)
              for segment in segments]
    if _np is not None:
        page_array = _np.frombuffer(pages, dtype=_np.int64)
        for first, end, name in bounds:
            inside = page_array[(page_array >= first) & (page_array < end)]
            counts[name] = int(inside.size)
            if inside.size:
                bucket = ((inside - first) * deciles) // (end - first)
                histograms[name] = _np.bincount(
                    bucket, minlength=deciles
                ).tolist()
    else:
        for page in pages:
            for first, end, name in bounds:
                if first <= page < end:
                    counts[name] += 1
                    histograms[name][((page - first) * deciles) // (end - first)] += 1
                    break
    for segment in segments:
        count = counts[segment.name]
        profile["segments"][segment.name] = {
            "share": count / total if total else 0.0,
            "deciles": [
                bucket / count if count else 0.0
                for bucket in histograms[segment.name]
            ],
        }
    return profile


def _profile_distance(native: dict, retargeted: dict) -> dict[str, Any]:
    """Per-segment share deltas and decile total-variation distances."""
    segments = {}
    for name, native_seg in native["segments"].items():
        retargeted_seg = retargeted["segments"][name]
        tv = 0.5 * sum(
            abs(a - b)
            for a, b in zip(native_seg["deciles"], retargeted_seg["deciles"])
        )
        segments[name] = {
            "share_native": round(native_seg["share"], 6),
            "share_retargeted": round(retargeted_seg["share"], 6),
            "share_delta": round(
                abs(native_seg["share"] - retargeted_seg["share"]), 6
            ),
            "decile_tv": round(tv, 6),
        }
    return segments


def verify_retarget(
    target: ScaleProfile,
    donor: ScaleProfile,
    seed: int = 42,
    transactions: int = 1500,
    policy=None,
    cache_fraction: float = 0.12,
) -> dict[str, Any]:
    """Run both parity tiers for ``donor -> target``; return the evidence.

    Tier 1 (identity): a ``target -> target`` retargeted replay must be
    bit-identical to the direct replay of the native recording.

    Tier 2 (statistical): the ``donor -> target`` retargeted trace must
    match a native recording at ``target`` on per-table access shares, the
    access-weighted mean of per-segment positional decile total-variation
    (NURand skew shape), and steady-state flash/DRAM hit ratios of a real
    replayed system — all within the declared tolerances.

    The returned dict carries every measured figure plus a top-level
    ``passed``; ``python -m repro retarget --verify`` prints it as JSON.
    """
    import dataclasses

    from repro.core.config import CachePolicy, scaled_reference_config
    from repro.sim.replay import ReplayRunner
    from repro.tpcc.loader import estimate_db_pages

    if policy is None:
        policy = CachePolicy.FACE_GSC
    config = scaled_reference_config(
        estimate_db_pages(target), cache_fraction=cache_fraction, policy=policy
    )

    native = get_recorder(target, seed)
    native.ensure(transactions)

    # Tier 1: identity retarget, bit-identical replay.
    identity = RetargetedTraceRecorder(target, seed, target)

    def _measured(recorder) -> Any:
        runner = ReplayRunner(config, recorder)
        runner.warm_up(max_transactions=15_000)
        return dataclasses.replace(runner.measure(transactions), obs=None)

    direct_result = _measured(native)
    identity_result = _measured(identity)
    identity_ok = identity_result == direct_result
    identity_trace = identity.trace
    native_trace = native.ensure(1)
    identity_bits_ok = (
        identity_trace.ops == native_trace.ops[: len(identity_trace.ops)]
        and identity_trace.args == native_trace.args[: len(identity_trace.args)]
    )

    # Tier 2: donor -> target, statistical.
    retargeted = retargeted_recorder(target, seed, donor)
    retargeted.ensure(transactions)
    native_profile = access_profile(native.ensure(transactions), target, transactions)
    retargeted_profile = access_profile(retargeted.trace, target, transactions)
    segments = _profile_distance(native_profile, retargeted_profile)
    share_ok = all(
        entry["share_delta"] <= TABLE_SHARE_TOLERANCE
        for entry in segments.values()
    )
    # Access-weighted mean TV: weighting by the native share keeps the gate
    # sensitive where the workload actually goes, while the scale-inherent
    # recency drift of lightly-touched append regions cannot dominate.
    weighted_decile_tv = sum(
        entry["share_native"] * entry["decile_tv"]
        for entry in segments.values()
        if max(entry["share_native"], entry["share_retargeted"])
        >= PROFILE_MIN_SHARE
    )
    decile_ok = weighted_decile_tv <= DECILE_TOLERANCE

    retargeted_result = _measured(retargeted)
    hit_rates = {
        "flash_native": round(direct_result.flash_hit_rate, 6),
        "flash_retargeted": round(retargeted_result.flash_hit_rate, 6),
        "flash_delta": round(
            abs(direct_result.flash_hit_rate - retargeted_result.flash_hit_rate), 6
        ),
        "dram_native": round(direct_result.dram_hit_rate, 6),
        "dram_retargeted": round(retargeted_result.dram_hit_rate, 6),
        "dram_delta": round(
            abs(direct_result.dram_hit_rate - retargeted_result.dram_hit_rate), 6
        ),
    }
    hits_ok = (
        hit_rates["flash_delta"] <= HIT_RATE_TOLERANCE
        and hit_rates["dram_delta"] <= HIT_RATE_TOLERANCE
    )

    return {
        "donor": repr(donor),
        "target": repr(target),
        "seed": seed,
        "transactions": transactions,
        "policy": policy.value,
        "identity_parity": bool(identity_ok and identity_bits_ok),
        "segments": segments,
        "share_within_tolerance": bool(share_ok),
        "weighted_decile_tv": round(weighted_decile_tv, 6),
        "decile_within_tolerance": bool(decile_ok),
        "hit_rates": hit_rates,
        "hit_rates_within_tolerance": bool(hits_ok),
        "tolerances": {
            "table_share": TABLE_SHARE_TOLERANCE,
            "decile_tv": DECILE_TOLERANCE,
            "hit_rate": HIT_RATE_TOLERANCE,
            "profile_min_share": PROFILE_MIN_SHARE,
        },
        "passed": bool(identity_ok and identity_bits_ok and share_ok
                       and decile_ok and hits_ok),
    }
