"""The four benchmark workloads: cell grids, sizes and the reason for each.

A workload is a fixed list of :class:`~repro.sim.parallel.CellSpec` built
from ``--seed``; the program under test receives only those specs.  Each
:class:`Plan` splits its cells three ways:

* ``timed`` — one *round* of the timed loop.  The end-to-end pass repeats
  whole rounds through :func:`repro.sim.parallel.run_cells` until
  ``--seconds`` is used up, so every round does identical work.
* ``extra`` — run once, untimed, through the same API.  They feed the
  correctness checks (paper shapes, store parity).
* ``trace`` — the reference cells the traced pass drives by hand.

Sizes are the largest that keep one end-to-end run (set-up three times, the
timed rounds, the checks) near 25 s on a 2-core sandbox: the driver makes 92
runs inside 3420 s.  README.md records how they were derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec
from repro.tpcc.scale import BENCH, TINY
from repro.workload.ycsb import YCSB_PRESETS

#: The reference cell: wherever one value per workload is reported, it is
#: this configuration (the paper's 200 MB DRAM / 6 GB flash / 50 GB point).
REFERENCE = {"policy": "face+gsc", "cache_fraction": 0.12, "buffer_fraction": 0.004}


@dataclass(frozen=True)
class Sizes:
    """Transaction counts and protocol knobs of one scale."""

    scale: object
    #: The database is far larger than DRAM and flash, so the paper's
    #: orderings (Fig. 4, Table 4) are expected; at TINY it fits in the cache.
    paper_regime: bool
    tpcc_full_tx: int
    #: Measured transactions of the replay grid's cells, and of its reference
    #: steady cell: ``sim_tpm`` comes from that one, and its spread across
    #: seeds shrinks with the count (0.17 at 500).
    tpcc_replay_tx: int
    tpcc_replay_ref_tx: int
    tpcc_warmup: tuple[int, int]
    tpcc_interval: float
    #: Safety bound of the crash schedule.  With ``jobs > 1`` the sweep engine
    #: records ``warmup_max + crash_max`` transactions before fanning out, so
    #: both bounds sit just above what the cells need (~500 and ~900).
    tpcc_crash_max: int
    dram_fit_tx: int
    #: Transactions recorded in set-up; covers the longest replay (warm-up
    #: plus the run to the reference crash point) with margin.
    replay_trace_tx: int
    ycsb_keys: int
    #: Fixed warm-up: fills the reference flash cache (~10 flash writes per
    #: transaction) and gives every seed the same transaction count.
    ycsb_warmup: int
    #: Long: every cell first writes the whole table into its own store (a
    #: fixed ~0.5 s of encode + put), which should stay near a tenth of the
    #: read-only cell.
    ycsb_read_tx: int
    ycsb_churn_tx: int
    ycsb_read_interval: float
    ycsb_churn_interval: float
    #: Set-up is repeated (three to seven times) until it has used this many
    #: CPU seconds in all, so that a cheap set-up is sampled more often.
    setup_min_cpu_s: float


BENCH_SIZES = Sizes(
    scale=BENCH,
    paper_regime=True,
    tpcc_full_tx=1000,
    tpcc_replay_tx=500,
    tpcc_replay_ref_tx=800,
    tpcc_warmup=(500, 2_000),
    tpcc_interval=2.0,
    tpcc_crash_max=3_000,
    dram_fit_tx=500,
    replay_trace_tx=1600,
    ycsb_keys=100_000,
    ycsb_warmup=70,
    ycsb_read_tx=330,
    ycsb_churn_tx=50,
    ycsb_read_interval=0.1,
    ycsb_churn_interval=0.2,
    setup_min_cpu_s=2.0,
)

#: ``--smoke``: every code path of the benchmark at TINY, in seconds.  At
#: TINY the database fits in the flash cache, so no timing or shape from a
#: smoke run means anything; warm-up is capped because the cache never
#: fills.
SMOKE_SIZES = Sizes(
    scale=TINY,
    paper_regime=False,
    tpcc_full_tx=150,
    tpcc_replay_tx=150,
    tpcc_replay_ref_tx=150,
    tpcc_warmup=(100, 200),
    tpcc_interval=0.05,
    tpcc_crash_max=3_000,
    dram_fit_tx=100,
    replay_trace_tx=600,
    ycsb_keys=5_000,
    ycsb_warmup=30,
    ycsb_read_tx=30,
    ycsb_churn_tx=30,
    ycsb_read_interval=0.01,
    ycsb_churn_interval=0.01,
    setup_min_cpu_s=0.0,
)


@dataclass(frozen=True)
class Plan:
    """One workload instantiated for one seed."""

    timed: tuple[CellSpec, ...]
    extra: tuple[CellSpec, ...]
    trace: tuple[CellSpec, ...]
    #: Serve cells through ``run_cells(fast=True)``.
    fast: bool
    ref_steady: tuple
    ref_crash: tuple
    #: Transactions the set-up records into the boundary trace (replay).
    trace_tx: int = 0

    @property
    def replays(self) -> bool:
        """Some timed cell is served by trace replay (and so captures and
        adopts post-warm-up forks)."""
        return self.fast and any(spec.replay_ok for spec in self.timed)

    def spec(self, key: tuple) -> CellSpec:
        for spec in (*self.timed, *self.extra, *self.trace):
            if spec.key == key:
                return spec
        raise KeyError(key)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Sizes], Plan]


# -- TPC-C ----------------------------------------------------------------------


def _tpcc_base(seed: int, sizes: Sizes, transactions: int) -> ExperimentConfig:
    warmup_min, warmup_max = sizes.tpcc_warmup
    return ExperimentConfig(
        scale=sizes.scale,
        seed=seed,
        measure_transactions=transactions,
        warmup_min=warmup_min,
        warmup_max=warmup_max,
        checkpoint_interval=sizes.tpcc_interval,
        crash_max_transactions=sizes.tpcc_crash_max,
        **REFERENCE,
    )


def _steady(base: ExperimentConfig, policy: str, fraction: float) -> CellSpec:
    return CellSpec.from_config(
        ("steady", policy, fraction), base.with_(policy=policy, cache_fraction=fraction)
    )


def _crash(base: ExperimentConfig, policy: str) -> CellSpec:
    return CellSpec.from_config(
        ("crash", policy, base.checkpoint_interval),
        base.with_(policy=policy, scenario="crash"),
    )


def _service(base: ExperimentConfig, policy: str) -> CellSpec:
    return CellSpec.from_config(
        ("service", policy, 50),
        base.with_(policy=policy, scenario="service", n_clients=50),
    )


def _dram_fit(base: ExperimentConfig, sizes: Sizes) -> CellSpec:
    # The whole database fits in DRAM: no eviction, no flash traffic.
    return CellSpec.from_config(
        ("dram_fit",),
        base.with_(
            buffer_fraction=1.0,
            warmup_min=sizes.tpcc_warmup[0],
            warmup_max=sizes.tpcc_warmup[0],
            measure_transactions=sizes.dram_fit_tx,
        ),
    )


def build_tpcc_full(seed: int, sizes: Sizes) -> Plan:
    base = _tpcc_base(seed, sizes, sizes.tpcc_full_tx)
    ref_steady = _steady(base, "face+gsc", 0.12)
    # Run once, by hand, by the checks: ``run_cells`` returns the restart
    # report but not the restarted DBMS, which is what gets audited.
    ref_crash = _crash(base, "face+gsc")
    return Plan(
        timed=(ref_steady, _dram_fit(base, sizes)),
        extra=(),
        trace=(ref_steady, _steady(base, "lc", 0.12), ref_crash),
        fast=False,
        ref_steady=ref_steady.key,
        ref_crash=ref_crash.key,
    )


def build_tpcc_replay_grid(seed: int, sizes: Sizes) -> Plan:
    base = _tpcc_base(seed, sizes, sizes.tpcc_replay_tx)
    ref_steady = _steady(
        base.with_(measure_transactions=sizes.tpcc_replay_ref_tx), "face+gsc", 0.12
    )
    lc_steady = _steady(base, "lc", 0.12)
    ref_crash = _crash(base, "face+gsc")
    ref_service = _service(base, "face+gsc")
    dram_fit = _dram_fit(base, sizes)
    return Plan(
        timed=(ref_steady, ref_crash, ref_service, dram_fit),
        extra=(
            lc_steady,
            _steady(base, "hdd-only", 0.12),
            _steady(base, "face+gsc", 0.04),
            _steady(base, "face+gsc", 0.20),
        ),
        trace=(ref_steady, lc_steady, ref_crash, ref_service, dram_fit),
        fast=True,
        ref_steady=ref_steady.key,
        ref_crash=ref_crash.key,
        trace_tx=sizes.replay_trace_tx,
    )


# -- YCSB on the persistent page stores ---------------------------------------------


def _ycsb_plan(
    seed: int, sizes: Sizes, knobs: dict, transactions: int, interval: float,
    timed_stores: tuple[str, ...],
) -> Plan:
    base = ExperimentConfig(
        scale=sizes.scale,
        seed=seed,
        workload="ycsb",
        workload_knobs={"n_keys": sizes.ycsb_keys, **knobs},
        measure_transactions=transactions,
        warmup_min=sizes.ycsb_warmup,
        warmup_max=sizes.ycsb_warmup,
        **REFERENCE,
    )

    # ``replay_ok=False`` under ``fast=True`` is full execution from a
    # warm-state fork: the table is loaded once, in set-up, and each cell
    # pays for writing that image into its own store — not for building it.
    def steady(store: str, config: ExperimentConfig = base) -> CellSpec:
        return CellSpec.from_config(
            ("steady", store), config.with_(page_store=store), replay_ok=False
        )

    def crash(store: str) -> CellSpec:
        return CellSpec.from_config(
            ("crash", store, interval),
            base.with_(page_store=store, scenario="crash", checkpoint_interval=interval),
            replay_ok=False,
        )

    timed = tuple(steady(store) for store in timed_stores)
    mmap_crash = crash("mmap")
    # A store that is not timed is still traced, for its per-call costs; a
    # short cell gives those.
    short = base.with_(measure_transactions=sizes.ycsb_churn_tx)
    traced = tuple(
        steady(store) if store in timed_stores else steady(store, short)
        for store in ("mmap", "sqlite")
    )
    return Plan(
        timed=timed,
        extra=(steady("memory"), mmap_crash, crash("memory")),
        trace=(*traced, mmap_crash),
        fast=True,
        ref_steady=timed[0].key,
        ref_crash=mmap_crash.key,
    )


def build_ycsb_read_persist(seed: int, sizes: Sizes) -> Plan:
    # One store and a long cell: writing the table into the cell's store is
    # write-path work, and a tenth of the cell at this length (README.md).
    return _ycsb_plan(
        seed, sizes, {"update_fraction": 0.0, "zipf_s": 0.99},
        sizes.ycsb_read_tx, sizes.ycsb_read_interval, ("mmap",),
    )


def build_ycsb_churn_persist(seed: int, sizes: Sizes) -> Plan:
    return _ycsb_plan(
        seed, sizes, YCSB_PRESETS["write-churn"],
        sizes.ycsb_churn_tx, sizes.ycsb_churn_interval, ("mmap", "sqlite"),
    )


def prepare(plan) -> None:
    """A workload's set-up: everything ``run_cells`` would otherwise do once,
    lazily, inside the first timed cell."""
    from repro.sim.replay import get_recorder, prepare_replay, save_recorded_traces
    from repro.sim.warmstate import get_snapshot

    if not plan.fast:
        return
    specs = (*plan.timed, *plan.extra)
    replayed = [spec for spec in specs if spec.replay_ok]
    if replayed:
        prepare_replay(replayed)
        for spec in replayed:
            get_recorder(spec.scale, spec.seed, spec.workload_spec()).ensure(plan.trace_tx)
        save_recorded_traces()
    for spec in specs:
        if not spec.replay_ok:
            get_snapshot(spec.scale, spec.seed, spec.workload_spec())


def forget_forks(plan) -> None:
    """Drop post-warm-up forks, so the cells run next warm up again.

    A replayed cell captures its warmed system and a later cell of the same
    config adopts it; repeated rounds (and passes) must each do equal work.
    ``clear_snapshots`` also drops the load snapshot, which replays do not
    need (they hold a recorder); plans that replay nothing capture no forks.
    """
    from repro.sim.warmstate import clear_snapshots

    if plan.replays:
        clear_snapshots()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tpcc_full",
            "TPC-C executed in full: driver, B-tree, WAL and the buffer/flash/device "
            "stack all work, replay does nothing; DB is 250x DRAM, or fits (dram_fit)",
            build_tpcc_full,
        ),
        Workload(
            "tpcc_replay_grid",
            "the same stream replayed from a trace recorded in set-up: only the replay "
            "kernel and the layers below it run, so a replay-loop change shows here alone",
            build_tpcc_replay_grid,
        ),
        Workload(
            "ycsb_read_persist",
            "read-only Zipf point reads on the mmap page store: no updates, WAL and dirty "
            "write-back idle; get+decode is the largest cost, yet flash admission and store "
            "population keep put+encode above a third",
            build_ycsb_read_persist,
        ),
        Workload(
            "ycsb_churn_persist",
            "90% updates on the mmap and sqlite stores: 6.5x the WAL volume, dirty write-back, "
            "twice the puts, redo at restart - all bypassed by ycsb_read_persist; decode still "
            "outweighs encode",
            build_ycsb_churn_persist,
        ),
    )
}
