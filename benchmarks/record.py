"""Benchmark-regression recorder: ``python benchmarks/record.py``.

Runs a fixed, small TINY-scale sweep through the parallel engine and writes
``BENCH_sweep.json`` next to this file with:

* per-cell wall-clock seconds (host time) and simulated transaction rate,
* aggregate wall-seconds-per-cell for the serial and parallel passes and
  the resulting speedup,
* a determinism flag (parallel results bit-identical to serial),
* a bounded history of previous records for trend comparison.

If the new serial wall-seconds-per-cell regresses more than
``REGRESSION_TOLERANCE`` against the previous record, the script warns (and
exits non-zero with ``--strict``).  Intended uses:

* locally, after a perf-affecting change: ``python benchmarks/record.py``
* in CI as a cheap smoke: ``python benchmarks/record.py --smoke --jobs 2``
* diagnosing a regressed cell: ``python benchmarks/record.py --obs`` adds a
  per-cell observability extract (cache/buffer/WAL counters) to the record,
  so the *why* behind a wall-seconds or tpmC shift is in the JSON, not lost
* ``--fast`` additionally times the trace-replay fast path against the full
  serial pass: one cold grid pass (includes recording the boundary trace),
  the one-time trace load + decode cost measured separately (``prepare``),
  and one warm per-cell pass whose speedup over full serial execution is
  gated at ``MIN_WARM_FAST_SPEEDUP`` (8x) under ``--strict``; with
  ``--jobs > 1`` it also runs a multi-worker pass served from one shared
  ``/dev/shm`` trace segment, recording shared-cell counts and gating on
  zero leaked segments; a parity flag asserts every fast variant is
  bit-identical to full execution
* ``--ablation`` records the replay-driven ablation engine instead: a dense
  TINY knob grid (policy x admission x DRAM policy x scan depth; 64 cells,
  ``--smoke`` shrinks it to a 2-axis 4-cell grid) served from one shared
  boundary trace, written to ``BENCH_ablation.json`` with per-axis
  sensitivities, a replay-parity flag from full-execution spot checks, and
  the persisted trace's compression ratio — the two acceptance gates
  (``parity`` true, ``compression_ratio >= 3``) fail the run under
  ``--strict``
* ``--latency`` records the closed-loop service grid instead: a TINY
  {policy} x {client count} matrix (1 -> 50 -> 500 -> 5000 clients) run as
  :class:`~repro.sim.service.ServiceScenario` cells over the shared
  boundary trace, written to ``BENCH_latency.json`` with per-cell
  throughput + p50/p95/p99 latency, each policy's saturation knee (the
  first client count whose throughput gain falls under
  ``KNEE_GAIN_THRESHOLD``), and a replay-parity flag — the acceptance
  gates (``parity`` true, monotone p50 <= p95 <= p99 per cell, every
  policy saturating within the swept range) fail the run under
  ``--strict``
* ``--scan`` records the scan-resistance grid instead: a TINY
  {policy} x {scan mix} matrix driving the ``tpch-scan`` registry workload
  (pure sequential scans, then the HTAP probe/update preset) over
  {mvFIFO+GSC, LRU-2, LC}, written to ``BENCH_scan.json`` with per-cell
  steady-state flash hit ratios and throughput — the acceptance gates
  (``parity`` true, zero natively recorded transactions in the timed
  replay pass, and GSC's pure-scan hit ratio strictly above LRU-2's: the
  paper's §3.3 scan-resistance claim) fail the run under ``--strict``
* ``--recovery`` records the Table-6-style crash/restart grid instead: a
  BENCH-scale {policy} x {checkpoint interval} crash matrix run as
  :class:`~repro.sim.scenario.CrashRecoveryScenario` cells over the shared
  boundary trace, written to ``BENCH_recovery.json`` with per-cell restart
  reports, FaCE-vs-baseline restart speedups, and a replay-parity flag from
  full-execution spot checks — the acceptance gates (``parity`` true, FaCE
  restart at least ``MIN_RESTART_SPEEDUP`` x faster than the LC and
  HDD-only baselines at every interval) fail the run under ``--strict``

Any cell whose wall time regresses more than ``CELL_REGRESSION_FACTOR``
(2x) against the previous record also warns — that is the CI gate.

The script is standalone — it does not import pytest or the benchmarks
conftest — so it can run anywhere the package can.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Standalone bootstrap: make `repro` importable when run as a script from
# a checkout (PYTHONPATH=src not required).
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import CachePolicy, scaled_reference_config  # noqa: E402
from repro.obs import OBS  # noqa: E402
from repro.sim.parallel import CellSpec, run_cells  # noqa: E402
from repro.sim.replay import (  # noqa: E402
    cached_trace_exists,
    clear_recorders,
    prepare_replay,
)
from repro.sim.trace import leaked_shared_segments  # noqa: E402
from repro.sim.warmstate import snapshot_load_seconds  # noqa: E402
from repro.tpcc.loader import estimate_db_pages  # noqa: E402
from repro.tpcc.scale import BENCH, TINY  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"
ABLATION_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_ablation.json"
RECOVERY_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_recovery.json"
LATENCY_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_latency.json"
SCAN_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_scan.json"
STORAGE_RECORD_PATH = Path(__file__).resolve().parent / "BENCH_storage.json"
HISTORY_LIMIT = 20
#: Warn when serial wall-seconds-per-cell grows past previous * (1 + tol).
REGRESSION_TOLERANCE = 0.30
#: Warn when any single cell's wall time grows past previous * factor.
#: Deliberately loose: per-cell times on shared CI runners are noisy, and
#: the gate exists to catch order-of-magnitude engine regressions.
CELL_REGRESSION_FACTOR = 2.0
#: The warm fast-grid pass (per-cell replay alone: warm-up adopted from a
#: post-warm-up fork, one-time trace decode paid separately) must beat
#: full serial execution by at least this factor.  Host speed cancels out
#: of the ratio, so the gate is stable across runners.
MIN_WARM_FAST_SPEEDUP = 8.0

POLICIES = (CachePolicy.LC, CachePolicy.FACE, CachePolicy.FACE_GR,
            CachePolicy.FACE_GSC)
FRACTIONS = (0.08, 0.16)
MEASURE_TX = 1500
SEED = 42


def sweep_specs(smoke: bool = False, collect_obs: bool = False) -> list[CellSpec]:
    db_pages = estimate_db_pages(TINY)
    policies = POLICIES[:1] if smoke else POLICIES
    fractions = FRACTIONS[:2] if smoke else FRACTIONS
    return [
        CellSpec(
            key=(policy.value, fraction),
            config=scaled_reference_config(
                db_pages, cache_fraction=fraction, policy=policy
            ),
            scale=TINY,
            seed=SEED,
            measure_transactions=MEASURE_TX,
            collect_obs=collect_obs,
        )
        for policy in policies
        for fraction in fractions
    ]


def timed_pass(specs: list[CellSpec], jobs: int) -> tuple[float, dict]:
    start = time.perf_counter()
    cells = run_cells(specs, jobs=jobs)
    return time.perf_counter() - start, cells


#: Metric prefixes worth carrying into the benchmark record when ``--obs``
#: is on: enough to explain *why* a cell's throughput moved, small enough
#: to keep BENCH_sweep.json readable.
OBS_PREFIXES = ("flashcache.", "buffer.pool.", "wal.")


def obs_extract(result) -> dict[str, float] | None:
    """Counters/gauges from the cell's snapshot under :data:`OBS_PREFIXES`."""
    if result.obs is None:
        return None
    flat = result.obs.as_flat()
    return {
        name: flat[name]
        for name in sorted(flat)
        if name.startswith(OBS_PREFIXES) and flat[name]
    }


def cell_rows(cells: dict, wall_by_key: dict) -> list[dict]:
    rows = []
    for key, result in cells.items():
        row = {
            "key": list(key),
            "wall_seconds": round(wall_by_key.get(key, 0.0), 4),
            "tpmc": round(result.tpmc, 2),
            "sim_tx_per_sec": round(
                result.transactions / result.wall_seconds
                if result.wall_seconds > 0 else 0.0,
                2,
            ),
            "flash_hit_rate": round(result.flash_hit_rate, 6),
        }
        extract = obs_extract(result)
        if extract is not None:
            row["obs"] = extract
        rows.append(row)
    return rows


def _strip_obs(cells: dict) -> dict:
    """Results without snapshots, for fast-vs-full parity: the ``replay.*``
    namespace describes the replay machinery and has no full-run twin."""
    import dataclasses

    return {key: dataclasses.replace(r, obs=None) for key, r in cells.items()}


def shared_pass(specs: list[CellSpec], serial_cells: dict, jobs: int) -> dict:
    """Multi-worker pass over one shared /dev/shm trace segment.

    Recorded for correctness, not gated on speed: single-CPU hosts cannot
    win wall-clock from local fan-out, but the record must show the shared
    path actually serving cells, zero exhaustion fallbacks in the steady
    case, and — the hard gate — zero leaked segments after the sweep.
    """
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.enable()
    try:
        start = time.perf_counter()
        cells = run_cells(specs, jobs=jobs, fast=True)
        wall = time.perf_counter() - start
        shared_cells = OBS.counter("replay.shared.cells").value
        exhausted = OBS.counter("replay.shared.exhausted").value
    finally:
        OBS.clear()
        if not was_enabled:
            OBS.disable()
    return {
        "jobs": jobs,
        "wall_seconds": round(wall, 3),
        "shared_cells": int(shared_cells),
        "exhausted": int(exhausted),
        "parity": _strip_obs(cells) == _strip_obs(serial_cells),
        "leaked_segments": leaked_shared_segments(),
    }


def fast_passes(
    specs: list[CellSpec], serial_cells: dict, serial_wall: float, jobs: int = 1
) -> dict:
    """Time the trace-replay fast path: cold grid pass, then warm per-cell.

    Between the two, the one-time trace preparation (load + decode of the
    persisted boundary trace) is re-paid from scratch and recorded under
    ``prepare`` — so the warm per-cell figures are replay alone and
    the fixed cost is visible in the record instead of silently folded
    into whichever cell runs first.
    """
    cold_start = time.perf_counter()
    cold_cells = run_cells(specs, jobs=1, fast=True)
    cold_wall = time.perf_counter() - cold_start

    prepare = None
    if all(cached_trace_exists(spec.scale, spec.seed) for spec in specs):
        clear_recorders()
        prep = prepare_replay(specs)
        prepare = {
            "seconds": round(prep["seconds"], 3),
            "groups": [
                {**group, "seconds": round(group["seconds"], 3)}
                for group in prep["groups"]
            ],
        }

    warm_by_key: dict = {}
    warm_cells: dict = {}
    warm_start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        warm_cells.update(run_cells([spec], jobs=1, fast=True))
        warm_by_key[spec.key] = time.perf_counter() - t0
    warm_wall = time.perf_counter() - warm_start

    parity = (
        _strip_obs(cold_cells) == _strip_obs(serial_cells)
        and _strip_obs(warm_cells) == _strip_obs(serial_cells)
    )
    record = {
        "cold_wall_seconds": round(cold_wall, 3),
        "warm_wall_seconds": round(warm_wall, 3),
        "warm_wall_seconds_per_cell": round(warm_wall / len(specs), 4),
        "speedup_cold_vs_serial": round(serial_wall / cold_wall, 3)
        if cold_wall > 0 else None,
        "speedup_warm_vs_serial": round(serial_wall / warm_wall, 3)
        if warm_wall > 0 else None,
        "parity": parity,
        "snapshot_load_seconds": round(snapshot_load_seconds(), 3),
        "cells": [
            {"key": list(key), "wall_seconds": round(wall, 4)}
            for key, wall in warm_by_key.items()
        ],
    }
    if prepare is not None:
        record["prepare"] = prepare
    if jobs > 1:
        record["shared"] = shared_pass(specs, serial_cells, jobs)
    return record


def run_record(
    jobs: int, smoke: bool, collect_obs: bool = False, fast: bool = False
) -> dict:
    specs = sweep_specs(smoke, collect_obs=collect_obs)

    # Serial pass, timing each cell individually for the per-cell record.
    wall_by_key: dict = {}
    serial_cells: dict = {}
    serial_start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        serial_cells.update(run_cells([spec], jobs=1))
        wall_by_key[spec.key] = time.perf_counter() - t0
    serial_wall = time.perf_counter() - serial_start

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        "cells": cell_rows(serial_cells, wall_by_key),
        "serial": {
            "wall_seconds": round(serial_wall, 3),
            "wall_seconds_per_cell": round(serial_wall / len(specs), 4),
        },
    }

    if fast:
        record["fast"] = fast_passes(specs, serial_cells, serial_wall, jobs=jobs)

    if jobs > 1:
        parallel_wall, parallel_cells = timed_pass(specs, jobs)
        record["parallel"] = {
            "jobs": jobs,
            "wall_seconds": round(parallel_wall, 3),
            "wall_seconds_per_cell": round(parallel_wall / len(specs), 4),
            "speedup_vs_serial": round(serial_wall / parallel_wall, 3)
            if parallel_wall > 0 else None,
        }
        record["deterministic"] = parallel_cells == serial_cells
    else:
        record["deterministic"] = True  # vacuous: single pass

    return record


def compare_with_previous(record: dict, previous: dict | None) -> list[str]:
    warnings = []
    if previous is None:
        return warnings
    if previous.get("mode") != record.get("mode"):
        # A smoke run against a committed full-grid baseline (CI's shape)
        # measures different cells; rate comparisons would be noise.  The
        # absolute fast-path gates (fast_gate_warnings) still apply.
        if not record.get("deterministic", True):
            warnings.append("parallel results are NOT bit-identical to serial")
        return warnings
    prev_rate = previous.get("serial", {}).get("wall_seconds_per_cell")
    new_rate = record["serial"]["wall_seconds_per_cell"]
    if prev_rate and new_rate > prev_rate * (1 + REGRESSION_TOLERANCE):
        warnings.append(
            f"serial wall-seconds/cell regressed: {prev_rate:.3f}s -> "
            f"{new_rate:.3f}s (> {REGRESSION_TOLERANCE:.0%} tolerance)"
        )
    prev_cells = {
        tuple(row["key"]): row.get("wall_seconds")
        for row in previous.get("cells", [])
    }
    for row in record["cells"]:
        prev_wall = prev_cells.get(tuple(row["key"]))
        if prev_wall and row["wall_seconds"] > prev_wall * CELL_REGRESSION_FACTOR:
            warnings.append(
                f"cell {row['key']} wall time regressed: {prev_wall:.3f}s -> "
                f"{row['wall_seconds']:.3f}s (> {CELL_REGRESSION_FACTOR:.0f}x)"
            )
    if not record.get("deterministic", True):
        warnings.append("parallel results are NOT bit-identical to serial")
    return warnings


def fast_gate_warnings(record: dict) -> list[str]:
    """Absolute gates on the fast-path record (no previous record needed)."""
    fast = record.get("fast")
    if not fast:
        return []
    warnings = []
    if not fast["parity"]:
        warnings.append("fast-path results are NOT bit-identical to full execution")
    warm = fast.get("speedup_warm_vs_serial")
    if warm is not None and warm < MIN_WARM_FAST_SPEEDUP:
        warnings.append(
            f"warm fast-grid speedup {warm}x over full serial is below the "
            f"{MIN_WARM_FAST_SPEEDUP:.0f}x floor"
        )
    shared = fast.get("shared")
    if shared is not None:
        if not shared["parity"]:
            warnings.append(
                "shared-trace multi-worker results are NOT bit-identical to serial"
            )
        if shared["shared_cells"] == 0:
            warnings.append(
                "shared-memory trace path never served a cell in the "
                "multi-worker pass"
            )
        if shared["leaked_segments"]:
            warnings.append(
                f"leaked /dev/shm trace segments after the sweep: "
                f"{shared['leaked_segments']}"
            )
    return warnings


# -- ablation record ---------------------------------------------------------

#: The dense grid the full ablation record runs: 4 x 2 x 2 x 4 = 64 cells,
#: every one sharing the single (TINY, SEED) boundary trace.  Axes are
#: chosen for signal at TINY scale (the 103-page database sits entirely
#: inside the floor-sized flash cache, so size/eviction knobs are inert
#: there — those ablations live in benchmarks/bench_ablation_*.py at BENCH
#: scale).  ``scan_depth`` is kept although flat: a flat curve across an
#: 8x depth range is the paper's own §3.3 claim.
ABLATION_AXES = {
    "policy": ("face", "face+gr", "face+gsc", "lc"),
    "admission": None,
    "dram": None,
    "scan_depth": (16, 32, 64, 128),
}
#: CI smoke: a 2-axis, 4-cell grid — same machinery, minutes cheaper.
SMOKE_ABLATION_AXES = {"admission": None, "sync": None}
ABLATION_MEASURE_TX = 600
#: The compressed persisted trace must beat the raw array encoding by at
#: least this factor (the trace-compression acceptance gate).
MIN_COMPRESSION_RATIO = 3.0


def run_ablation_record(jobs: int, smoke: bool) -> dict:
    """Run the ablation grid via replay; record sensitivities + gates."""
    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.replay import persisted_trace_stats

    base = ExperimentConfig(
        scale=TINY, seed=SEED, measure_transactions=ABLATION_MEASURE_TX
    )
    study = AblationStudy(base, SMOKE_ABLATION_AXES if smoke else ABLATION_AXES)
    results = study.run(jobs=jobs, fast=True)
    parity, mismatched = verify_parity(study, results, sample=2 if smoke else 3)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        **results.to_record(),
        "replay_parity": parity,
    }
    if mismatched:
        record["parity_mismatches"] = [list(key) for key in mismatched]
    stats = persisted_trace_stats(base.scale, base.seed)
    if stats is not None and stats.get("body_bytes"):
        record["trace"] = {
            **stats,
            "compression_ratio": round(stats["raw_bytes"] / stats["body_bytes"], 2),
        }
    return record


def ablation_warnings(record: dict) -> list[str]:
    warnings = []
    if not record.get("replay_parity", False):
        warnings.append(
            "ablation replay results are NOT bit-identical to full execution"
        )
    trace = record.get("trace")
    if trace is None:
        warnings.append(
            "no persisted trace found (REPRO_TRACE_CACHE off?): compression "
            "ratio not verified"
        )
    elif trace["compression_ratio"] < MIN_COMPRESSION_RATIO:
        warnings.append(
            f"trace compression ratio {trace['compression_ratio']}x is below "
            f"the {MIN_COMPRESSION_RATIO}x floor"
        )
    return warnings


# -- latency record ----------------------------------------------------------

#: The closed-loop service grid: two policies (the paper's protagonist and
#: its strongest baseline) under a client-count ladder spanning the paper's
#: 50-client reference setup up to 100x past it, every cell replaying the
#: single (TINY, SEED) boundary trace.  The measured transaction count must
#: comfortably exceed the largest client count, or the "ladder" degenerates
#: into one burst per client.
LATENCY_POLICIES = ("face+gsc", "lc")
LATENCY_CLIENTS = (1, 50, 500, 5000)
SMOKE_LATENCY_CLIENTS = (1, 8)
LATENCY_MEASURE_TX = 6000
SMOKE_LATENCY_MEASURE_TX = 400
#: A policy's knee is the first client count whose throughput gain over the
#: previous rung falls below this fraction — past it, added clients buy
#: queueing delay, not throughput.
KNEE_GAIN_THRESHOLD = 0.10


def locate_knee(points: list[tuple[int, float]]) -> int | None:
    """First client count whose tps gain over the previous rung is < 10 %.

    ``points`` is ``[(n_clients, tps), ...]`` in ascending client order.
    Returns ``None`` when throughput is still climbing at the last rung
    (the knee lies beyond the swept range).
    """
    for (_, prev_tps), (clients, tps) in zip(points, points[1:]):
        if prev_tps > 0 and (tps - prev_tps) / prev_tps < KNEE_GAIN_THRESHOLD:
            return clients
    return None


def run_latency_record(jobs: int, smoke: bool) -> dict:
    """Run the service grid via replay; record latency ladders + knees."""
    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig

    clients = SMOKE_LATENCY_CLIENTS if smoke else LATENCY_CLIENTS
    base = ExperimentConfig(
        scale=TINY,
        seed=SEED,
        scenario="service",
        measure_transactions=(
            SMOKE_LATENCY_MEASURE_TX if smoke else LATENCY_MEASURE_TX
        ),
    )
    study = AblationStudy(
        base, {"policy": LATENCY_POLICIES, "n_clients": clients}
    )
    results = study.run(jobs=jobs, fast=True)
    parity, mismatched = verify_parity(study, results, sample=1 if smoke else 2)

    ladders = {}
    knees = {}
    for policy in LATENCY_POLICIES:
        points = [
            (n, results.cells[(policy, n)].tps) for n in clients
        ]
        ladders[policy] = [
            {
                "n_clients": n,
                "tps": round(r.tps, 2),
                "tpmc": round(r.tpmc, 2),
                "p50_ms": round(r.p50_seconds * 1000.0, 4),
                "p95_ms": round(r.p95_seconds * 1000.0, 4),
                "p99_ms": round(r.p99_seconds * 1000.0, 4),
            }
            for n in clients
            for r in (results.cells[(policy, n)],)
        ]
        knees[policy] = locate_knee(points)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        **results.to_record(),
        "replay_parity": parity,
        "clients": list(clients),
        "ladders": ladders,
        "knees": knees,
    }
    if mismatched:
        record["parity_mismatches"] = [list(key) for key in mismatched]
    return record


def latency_warnings(record: dict) -> list[str]:
    warnings = []
    if not record.get("replay_parity", False):
        warnings.append(
            "service replay results are NOT bit-identical to full execution"
        )
    for cell in record.get("cells", []):
        if not cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"]:
            warnings.append(
                f"cell {cell['key']} has non-monotone percentiles: "
                f"p50 {cell['p50_ms']}ms p95 {cell['p95_ms']}ms "
                f"p99 {cell['p99_ms']}ms"
            )
    if record.get("mode") == "full":
        # The full ladder reaches 100x past each policy's knee; a missing
        # knee means throughput never saturated — the model is broken.
        for policy, knee in record.get("knees", {}).items():
            if knee is None:
                warnings.append(
                    f"policy {policy} never saturated across "
                    f"{record['clients']} clients (no knee located)"
                )
    return warnings


# -- scan-resistance record --------------------------------------------------

#: The scan-resistance grid (paper §3.3): the ``tpch-scan`` registry
#: workload under two mixes — pure sequential scans and the HTAP
#: probe/update preset — over the paper's protagonist (mvFIFO+GSC), the
#: pure-recency strawman it argues against (LRU-2), and LC.  A long scan
#: floods any recency-ranked flash cache with single-touch pages; the
#: multi-version FIFO admission queue plus GSC's reference bits keep the
#: re-visited working set resident instead.
SCAN_POLICIES = ("face+gsc", "lru2", "lc")
#: CI smoke drops the LC baseline (the gates compare GSC against LRU-2)
#: but keeps the full measurement window: a shorter window stops before
#: LRU-2's scan-cannibalisation reaches steady state and the §3.3 gate
#: would measure the transient, not the claim.
SMOKE_SCAN_POLICIES = ("face+gsc", "lru2")
#: Mix name -> preset for :func:`repro.workload.registry.workload_spec`.
SCAN_MIXES = {"pure-scan": None, "htap": "htap"}
SCAN_MEASURE_TX = 400
SCAN_WARMUP = dict(warmup_min=60, warmup_max=800)
SCAN_CACHE_FRACTION = 0.08


def scan_specs(smoke: bool) -> list[CellSpec]:
    from repro.workload.registry import estimate_workload_pages, workload_spec

    policies = SMOKE_SCAN_POLICIES if smoke else SCAN_POLICIES
    specs = []
    for mix, preset in SCAN_MIXES.items():
        spec_w = workload_spec("tpch-scan", preset=preset)
        db_pages = estimate_workload_pages(spec_w, TINY)
        for policy in policies:
            specs.append(CellSpec(
                key=(mix, policy),
                config=scaled_reference_config(
                    db_pages,
                    cache_fraction=SCAN_CACHE_FRACTION,
                    policy=CachePolicy(policy),
                ),
                scale=TINY,
                seed=SEED,
                workload=spec_w.name,
                workload_knobs=spec_w.knobs,
                measure_transactions=SCAN_MEASURE_TX,
                **SCAN_WARMUP,
            ))
    return specs


def run_scan_record(jobs: int, smoke: bool) -> dict:
    """Run the scan grid via replay; record hit ratios + the §3.3 gate.

    Three passes:

    1. seed — a fast grid pass from a clean slate records one native
       ``tpch-scan`` boundary trace per mix;
    2. the timed claim — the same grid replayed with observability on,
       asserting **zero** natively recorded transactions: every workload
       rides the trace-replay fast path, not just TPC-C;
    3. parity evidence — one cell per mix re-run as full execution and
       compared bit-for-bit against the replayed results.
    """
    import dataclasses

    from repro.sim.parallel import run_cell

    specs = scan_specs(smoke)

    # 1. Seed: records each mix's trace once, then serves its siblings.
    clear_recorders()
    seed_start = time.perf_counter()
    seeded = run_cells(specs, jobs=1, fast=True)
    seed_wall = time.perf_counter() - seed_start

    # 2. Timed replay pass: nothing may record natively now.
    was_enabled = OBS.enabled
    OBS.clear()
    OBS.enable()
    try:
        replay_start = time.perf_counter()
        cells = run_cells(specs, jobs=1, fast=True)
        replay_wall = time.perf_counter() - replay_start
        native_recorded = OBS.counter("replay.trace.recorded_transactions").value
    finally:
        OBS.clear()
        if not was_enabled:
            OBS.disable()

    # 3. Parity: one full-execution cell per mix (the GSC protagonist).
    parity = _strip_obs(cells) == _strip_obs(seeded)
    for mix in SCAN_MIXES:
        spec = next(s for s in specs if s.key == (mix, "face+gsc"))
        full = run_cell(spec)
        parity = parity and (
            dataclasses.replace(full, obs=None)
            == dataclasses.replace(cells[spec.key], obs=None)
        )

    rows = [
        {
            "key": list(key),
            "flash_hit_rate": round(result.flash_hit_rate, 6),
            "tpmc": round(result.tpmc, 2),
            "transactions": result.transactions,
        }
        for key, result in cells.items()
    ]
    hit = {key: cells[key].flash_hit_rate for key in cells}
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        "workload": "tpch-scan",
        "mixes": {
            mix: (f"preset {preset!r}" if preset else "default knobs")
            for mix, preset in SCAN_MIXES.items()
        },
        "n_cells": len(specs),
        "cells": rows,
        "seed_wall_seconds": round(seed_wall, 3),
        "replay_wall_seconds": round(replay_wall, 3),
        "native_recorded_transactions": int(native_recorded),
        "replay_parity": parity,
        "scan_resistance": {
            mix: {
                "gsc_flash_hit_rate": round(hit[(mix, "face+gsc")], 6),
                "lru2_flash_hit_rate": round(hit[(mix, "lru2")], 6),
                "gsc_beats_lru2": hit[(mix, "face+gsc")] > hit[(mix, "lru2")],
            }
            for mix in SCAN_MIXES
        },
    }


def scan_warnings(record: dict) -> list[str]:
    """Acceptance gates on the scan record (``--strict`` fails on any)."""
    warnings = []
    if not record.get("replay_parity", False):
        warnings.append(
            "scan replay results are NOT bit-identical to full execution"
        )
    if record.get("native_recorded_transactions"):
        warnings.append(
            f"scan replay pass recorded "
            f"{record['native_recorded_transactions']} native transactions "
            f"(expected 0: every mix should replay its seeded trace)"
        )
    gate = record.get("scan_resistance", {}).get("pure-scan", {})
    if not gate.get("gsc_beats_lru2", False):
        warnings.append(
            f"GSC pure-scan flash hit ratio "
            f"{gate.get('gsc_flash_hit_rate')} does not beat LRU-2's "
            f"{gate.get('lru2_flash_hit_rate')} (the §3.3 scan-resistance "
            f"claim)"
        )
    return warnings


# -- recovery record ---------------------------------------------------------

#: The crash/restart grid: every cell shares one (BENCH, SEED) boundary
#: trace, truncated at each cell's kill point.  BENCH scale, not TINY: a
#: TINY restart fetches only ~15 pages during redo, so the flash-vs-disk
#: read gap that Table 6 measures drowns in checkpoint-phase noise there.
RECOVERY_POLICIES = ("face+gsc", "lc", "hdd-only")
RECOVERY_INTERVALS = (1.0, 2.0, 3.0)
SMOKE_RECOVERY_INTERVALS = (1.0,)
RECOVERY_CACHE_FRACTION = 0.08  # the paper's 4 GB / ~50 GB working ratio
RECOVERY_MAX_TX = 20_000
#: FaCE must restart at least this much faster than each baseline at every
#: interval (observed: 2.0-3.4x vs HDD-only, 1.2-2.9x vs LC).
MIN_RESTART_SPEEDUP = 1.1


def run_recovery_record(jobs: int, smoke: bool) -> dict:
    """Run the crash grid via replay; record restart reports + speedups."""
    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig

    intervals = SMOKE_RECOVERY_INTERVALS if smoke else RECOVERY_INTERVALS
    base = ExperimentConfig(
        scale=BENCH,
        seed=SEED,
        cache_fraction=RECOVERY_CACHE_FRACTION,
        scenario="crash",
        checkpoint_interval=intervals[0],
        crash_max_transactions=RECOVERY_MAX_TX,
    )
    study = AblationStudy(
        base,
        {"policy": RECOVERY_POLICIES, "checkpoint_interval": intervals},
    )
    results = study.run(jobs=jobs, fast=True)
    parity, mismatched = verify_parity(study, results, sample=1 if smoke else 2)

    face, *baselines = RECOVERY_POLICIES
    speedups = []
    for interval in intervals:
        face_restart = results.cells[(face, interval)].restart_seconds
        speedups.append({
            "checkpoint_interval": interval,
            "restart_seconds": {
                policy: round(results.cells[(policy, interval)].restart_seconds, 6)
                for policy in RECOVERY_POLICIES
            },
            "face_speedup_vs": {
                policy: round(
                    results.cells[(policy, interval)].restart_seconds
                    / face_restart,
                    3,
                )
                for policy in baselines
            },
        })

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        **results.to_record(),
        "replay_parity": parity,
        "speedups": speedups,
    }
    if mismatched:
        record["parity_mismatches"] = [list(key) for key in mismatched]
    return record


def recovery_warnings(record: dict) -> list[str]:
    warnings = []
    if not record.get("replay_parity", False):
        warnings.append(
            "recovery replay results are NOT bit-identical to full execution"
        )
    for entry in record.get("speedups", []):
        for policy, speedup in entry["face_speedup_vs"].items():
            if speedup < MIN_RESTART_SPEEDUP:
                warnings.append(
                    f"FaCE restart speedup vs {policy} at interval "
                    f"{entry['checkpoint_interval']} is {speedup}x "
                    f"(< {MIN_RESTART_SPEEDUP}x floor)"
                )
    return warnings


#: Persistent page-store backends may cost real (harness) time — every
#: page get crosses a decode + file boundary, every put of a modified page
#: an encode — but must never change simulated results.  Recorded 7-9x
#: with the run-columnar codec (17.5x / 15.6x with the tagged one); the
#: ceiling leaves shared-runner noise room, the parity gate is the
#: load-bearing one.  The residue is not the byte format: every TPC-C
#: page is a single columnar run, and half the persistent cell is
#: ``dict.update`` rebuilding a whole slot dict (300 entries on a hash
#: bucket) to probe one key, plus the collector walking those tuples.
MAX_STORAGE_OVERHEAD = 12.0
STORAGE_MEASURE_TX = 1000
SMOKE_STORAGE_MEASURE_TX = 300


def run_storage_record(jobs: int, smoke: bool) -> dict:
    """Time one identical cell per page-store backend; gate replay parity.

    The memory pass runs first and untimed once so that the per-process
    warm-state snapshot cache is populated before any timing starts —
    otherwise whichever backend goes first would be charged the one-time
    workload load.
    """
    import dataclasses

    from repro.sim.experiment import ExperimentConfig
    from repro.storage.registry import available_backends

    scale = TINY if smoke else BENCH
    transactions = SMOKE_STORAGE_MEASURE_TX if smoke else STORAGE_MEASURE_TX

    def run_backend(backend: str):
        config = ExperimentConfig(
            scale=scale,
            seed=SEED,
            measure_transactions=transactions,
            page_store=backend,
        )
        spec = CellSpec.from_config((backend,), config)
        start = time.perf_counter()
        result = run_cells([spec], jobs=1)[(backend,)]
        return time.perf_counter() - start, result

    run_backend("memory")  # warm the load snapshot, discard the timing
    walls: dict[str, float] = {}
    results = {}
    for backend in available_backends():
        walls[backend], results[backend] = run_backend(backend)

    def strip(result):
        return dataclasses.replace(result, name="", obs=None)

    reference = strip(results["memory"])
    parity = {
        backend: strip(result) == reference
        for backend, result in results.items()
    }
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "smoke" if smoke else "full",
        "scale": "tiny" if smoke else "bench",
        "transactions": transactions,
        "backends": {
            backend: {
                "wall_seconds": round(walls[backend], 3),
                "overhead_vs_memory": round(
                    walls[backend] / walls["memory"], 3
                ),
                "tpmc": round(results[backend].tpmc, 3),
                "flash_hit_rate": round(results[backend].flash_hit_rate, 6),
                "parity_with_memory": parity[backend],
            }
            for backend in walls
        },
        "replay_parity": all(parity.values()),
    }


def storage_warnings(record: dict) -> list[str]:
    warnings = []
    if not record.get("replay_parity", False):
        divergent = [
            name
            for name, cell in record.get("backends", {}).items()
            if not cell.get("parity_with_memory", False)
        ]
        warnings.append(
            "page-store backends are NOT bit-identical to memory: "
            + ", ".join(divergent)
        )
    for name, cell in record.get("backends", {}).items():
        if cell["overhead_vs_memory"] > MAX_STORAGE_OVERHEAD:
            warnings.append(
                f"backend {name} harness overhead "
                f"{cell['overhead_vs_memory']}x vs memory "
                f"(> {MAX_STORAGE_OVERHEAD}x ceiling)"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel pass worker count (1 skips it)")
    parser.add_argument("--smoke", action="store_true",
                        help="2-cell CI smoke instead of the full sweep")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on regression warnings")
    parser.add_argument("--obs", action="store_true",
                        help="collect per-cell observability snapshots and "
                             "record a counter extract per cell")
    parser.add_argument("--fast", action="store_true",
                        help="also time the trace-replay fast path (cold + "
                             "warm) against the full serial pass and check "
                             "bit-identical parity")
    parser.add_argument("--ablation", action="store_true",
                        help="record the replay-driven ablation grid to "
                             "BENCH_ablation.json instead of the sweep")
    parser.add_argument("--recovery", action="store_true",
                        help="record the crash/restart grid to "
                             "BENCH_recovery.json instead of the sweep")
    parser.add_argument("--latency", action="store_true",
                        help="record the closed-loop service grid "
                             "(throughput + tail latency vs client count) "
                             "to BENCH_latency.json instead of the sweep")
    parser.add_argument("--scan", action="store_true",
                        help="record the scan-resistance grid (tpch-scan "
                             "workload over {face+gsc, lru2, lc}) to "
                             "BENCH_scan.json instead of the sweep")
    parser.add_argument("--storage", action="store_true",
                        help="record the page-store backend pass (one "
                             "identical cell per backend: replay parity + "
                             "harness overhead) to BENCH_storage.json "
                             "instead of the sweep")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    exclusive = [
        name for name, on in
        (("--ablation", args.ablation), ("--recovery", args.recovery),
         ("--latency", args.latency), ("--scan", args.scan),
         ("--storage", args.storage))
        if on
    ]
    if len(exclusive) > 1:
        parser.error(f"{' and '.join(exclusive)} are mutually exclusive")
    if args.storage:
        default_output = STORAGE_RECORD_PATH
    elif args.recovery:
        default_output = RECOVERY_RECORD_PATH
    elif args.ablation:
        default_output = ABLATION_RECORD_PATH
    elif args.latency:
        default_output = LATENCY_RECORD_PATH
    elif args.scan:
        default_output = SCAN_RECORD_PATH
    else:
        default_output = RECORD_PATH
    output = args.output or default_output

    existing = {}
    if output.exists():
        existing = json.loads(output.read_text())
    previous = existing.get("latest")

    if args.storage:
        record = run_storage_record(args.jobs, args.smoke)
        warnings = storage_warnings(record)
    elif args.recovery:
        record = run_recovery_record(args.jobs, args.smoke)
        warnings = recovery_warnings(record)
    elif args.ablation:
        record = run_ablation_record(args.jobs, args.smoke)
        warnings = ablation_warnings(record)
    elif args.latency:
        record = run_latency_record(args.jobs, args.smoke)
        warnings = latency_warnings(record)
    elif args.scan:
        record = run_scan_record(args.jobs, args.smoke)
        warnings = scan_warnings(record)
    else:
        record = run_record(args.jobs, args.smoke, collect_obs=args.obs,
                            fast=args.fast)
        warnings = (
            compare_with_previous(record, previous) + fast_gate_warnings(record)
        )

    history = existing.get("history", [])
    if previous is not None:
        history = (history + [previous])[-HISTORY_LIMIT:]
    output.write_text(
        json.dumps({"latest": record, "history": history}, indent=2) + "\n"
    )

    if args.storage:
        print(f"wrote {output}")
        print(f"  mode: {record['mode']}  scale: {record['scale']}  "
              f"tx/cell: {record['transactions']}  "
              f"parity: {record['replay_parity']}")
        for backend, cell in record["backends"].items():
            print(f"  {backend}: {cell['wall_seconds']}s "
                  f"({cell['overhead_vs_memory']}x vs memory)  "
                  f"tpmC {cell['tpmc']:,.0f}  "
                  f"parity {cell['parity_with_memory']}")
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        return 1 if (warnings and args.strict) else 0

    if args.scan:
        print(f"wrote {output}")
        print(f"  cells: {record['n_cells']}  mode: {record['mode']}  "
              f"workload: {record['workload']}")
        print(f"  seed pass: {record['seed_wall_seconds']}s  replay pass: "
              f"{record['replay_wall_seconds']}s  native tx recorded: "
              f"{record['native_recorded_transactions']}  "
              f"parity: {record['replay_parity']}")
        for mix, gate in record["scan_resistance"].items():
            verdict = "beats" if gate["gsc_beats_lru2"] else "DOES NOT beat"
            print(f"  {mix}: GSC flash hit {gate['gsc_flash_hit_rate']} "
                  f"{verdict} LRU-2 {gate['lru2_flash_hit_rate']}")
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        return 1 if (warnings and args.strict) else 0

    if args.ablation or args.recovery or args.latency:
        print(f"wrote {output}")
        print(f"  cells: {record['n_cells']}  mode: {record['mode']}  "
              f"axes: {' x '.join(record['axes'])}")
        print(f"  wall: {record['wall_seconds']}s "
              f"({record['wall_seconds_per_cell']}s/cell)  "
              f"parity: {record['replay_parity']}")
        if "trace" in record:
            t = record["trace"]
            print(f"  trace: {t['raw_bytes']} raw -> {t['body_bytes']} "
                  f"compressed ({t['compression_ratio']}x)")
        for policy, ladder in record.get("ladders", {}).items():
            knee = record["knees"].get(policy)
            rungs = "  ".join(
                f"{r['n_clients']}cl {r['tps']:,.0f}tps p95 {r['p95_ms']:.1f}ms"
                for r in ladder
            )
            print(f"  {policy}: {rungs}  "
                  f"knee: {knee if knee is not None else 'beyond range'}")
        for entry in record.get("speedups", []):
            vs = "  ".join(
                f"{speedup}x vs {policy}"
                for policy, speedup in entry["face_speedup_vs"].items()
            )
            print(f"  interval {entry['checkpoint_interval']}: "
                  f"FaCE restart {vs}")
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        return 1 if (warnings and args.strict) else 0

    print(f"wrote {output}")
    print(f"  cells: {len(record['cells'])}  mode: {record['mode']}")
    print(f"  serial: {record['serial']['wall_seconds']}s "
          f"({record['serial']['wall_seconds_per_cell']}s/cell)")
    if "fast" in record:
        f = record["fast"]
        print(f"  fast cold: {f['cold_wall_seconds']}s "
              f"(speedup {f['speedup_cold_vs_serial']}x)  "
              f"warm: {f['warm_wall_seconds']}s "
              f"(speedup {f['speedup_warm_vs_serial']}x)  "
              f"parity: {f['parity']}")
        if "prepare" in f:
            print(f"  prepare (one-time load + decode): {f['prepare']['seconds']}s "
                  f"across {len(f['prepare']['groups'])} trace group(s)")
        if "shared" in f:
            s = f["shared"]
            print(f"  shared (jobs={s['jobs']}): {s['wall_seconds']}s  "
                  f"cells via /dev/shm: {s['shared_cells']}  "
                  f"exhausted: {s['exhausted']}  parity: {s['parity']}  "
                  f"leaked: {len(s['leaked_segments'])}")
    if "parallel" in record:
        p = record["parallel"]
        print(f"  parallel (jobs={p['jobs']}): {p['wall_seconds']}s "
              f"(speedup {p['speedup_vs_serial']}x)")
    print(f"  deterministic: {record['deterministic']}")
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
