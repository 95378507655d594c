"""Workload registry: one named catalogue of every driveable workload.

Before this module, "which workload does this cell run?" had exactly one
answer — TPC-C — hard-wired into the experiment runner, the trace
recorder and the warm-state forker.  The registry mirrors the flash-cache
policy registry (:mod:`repro.flashcache.registry`): every workload is one
:class:`WorkloadEntry` naming its schema/loader, its driver factory, the
transaction kinds its driver reports, and the knobs it accepts — and the
whole experiment stack (:class:`~repro.sim.experiment.ExperimentConfig`,
:class:`~repro.sim.parallel.CellSpec`, sweeps, ablations, the CLI) fans
out through it.

Three registered entries:

* ``tpcc`` — the paper's OLTP workload (clause 5.2.3 mix, NURand skew);
* ``tpch-scan`` — a TPC-H-style analytical workload: spec-faithful table
  cardinality *ratios*, chunked fact-table scans with a join re-visit
  pass, and knobs for scan depth/skew plus an HTAP read/update mix
  (:mod:`repro.workload.tpch`);
* ``ycsb`` — the synthetic Zipf key-value workload
  (:mod:`repro.workload.ycsb`), with skew and read/write-mix knobs and a
  Flashield-style ``write-churn`` preset.

Entry points mirror the policy registry:

* :func:`available_workloads` — canonical names, in catalogue order;
* :func:`get_workload_entry` — lookup raising
  :class:`~repro.errors.WorkloadError` naming the known set;
* :func:`workload_spec` — ``(name, knobs)`` -> canonical, hashable
  :class:`WorkloadSpec`, validating knob names against the entry;
* :func:`make_workload` — build a loaded, ready-to-run driver.

Boundary traces (:mod:`repro.sim.trace`) are workload-agnostic — a trace
is just the logical page stream above the buffer pool — so every
registered workload gets the replay fast path, trace caching and the
parallel sweep engine for free.  What is *not* workload-agnostic is trace
*identity*: a cached trace is keyed by ``(scale, seed, workload)`` (see
DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping

from repro.errors import WorkloadError
from repro.tpcc.scale import ScaleProfile


@dataclass(frozen=True)
class WorkloadSpec:
    """One canonical, hashable ``(workload name, knob overrides)`` pair.

    ``knobs`` holds only *non-default* knob values, sorted by name — two
    specs describing the same workload compare (and hash) equal no matter
    how their knobs were spelled.  Specs are picklable and ride inside
    :class:`~repro.sim.parallel.CellSpec`, trace-cache keys and warm-fork
    keys; build them with :func:`workload_spec`, which validates against
    the registry.
    """

    name: str = "tpcc"
    knobs: tuple[tuple[str, Any], ...] = ()

    @property
    def token(self) -> str:
        """Compact string identity, used in trace-cache keys and headers."""
        if not self.knobs:
            return self.name
        inner = ",".join(f"{k}={v!r}" for k, v in self.knobs)
        return f"{self.name}[{inner}]"

    def resolved_knobs(self) -> dict[str, Any]:
        """Entry defaults merged with this spec's overrides."""
        entry = get_workload_entry(self.name)
        return {**dict(entry.knobs), **dict(self.knobs)}


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload.

    ``create_schema`` runs against anything exposing ``create_table`` /
    ``create_index`` (the real DBMS or a catalog-only probe, which is how
    :func:`estimate_workload_pages` sizes configs without loading rows).
    ``loader`` populates a fresh DBMS and returns a database handle;
    ``make_driver`` turns that handle into a driver following the TPC-C
    protocol: ``run_one() -> TxResult`` (``.kind``/``.committed``),
    ``run(n, checkpointer=None)``, and a
    :class:`~repro.tpcc.driver.WorkloadStats` at ``.stats``.

    ``tx_kinds`` is the driver's closed kind alphabet, **headline kind
    first**: replayed traces encode each transaction's kind as its index
    into this tuple, and index 0 is the commit counter the headline
    throughput metric (tpmC for TPC-C) is computed from.

    ``fork_state``/``refork`` are the warm-state hooks: ``fork_state``
    extracts the picklable workload-side state a snapshot must carry
    beyond the catalog/tables/indexes (TPC-C's undelivered-order queues);
    ``refork`` rebuilds a handle onto a forked DBMS from a deep copy of
    that state.
    """

    name: str
    description: str
    tx_kinds: tuple[str, ...]
    knobs: Mapping[str, Any]
    create_schema: Callable[..., None]
    loader: Callable[..., Any]
    make_driver: Callable[..., Any]
    fork_state: Callable[[Any], Any]
    refork: Callable[..., Any]
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    @property
    def headline_kind(self) -> str:
        return self.tx_kinds[0]

    def config_knobs(self, spec: "WorkloadSpec") -> dict[str, Any]:
        """Read this entry's full knob values out of a spec (defaults
        merged with the spec's overrides) — the workload-side mirror of
        :meth:`repro.flashcache.registry.PolicyEntry.config_knobs`."""
        if spec.name != self.name:
            raise WorkloadError(
                f"spec is for workload {spec.name!r}, not {self.name!r}"
            )
        return {**dict(self.knobs), **dict(spec.knobs)}


# -- entry construction (imports deferred to keep module import light) ---------


def _tpcc_entry() -> WorkloadEntry:
    from repro.tpcc.driver import _MIX, TpccDriver
    from repro.tpcc.loader import _create_schema, load_tpcc

    def create_schema(dbms, scale: ScaleProfile) -> None:
        _create_schema(dbms, scale)

    def loader(dbms, scale: ScaleProfile, seed: int):
        return load_tpcc(dbms, scale, seed=seed)

    def make_driver(database, seed: int):
        return TpccDriver(database, seed=seed)

    def fork_state(database):
        return (database.undelivered, database.name_span)

    def refork(dbms, scale: ScaleProfile, state):
        from repro.tpcc.loader import TpccDatabase

        undelivered, name_span = state
        database = TpccDatabase(dbms=dbms, scale=scale, undelivered=undelivered)
        database.name_span = name_span
        return database

    return WorkloadEntry(
        name="tpcc",
        description="TPC-C OLTP: clause 5.2.3 mix with NURand skew "
        "(the paper's workload)",
        tx_kinds=tuple(kind for kind, _ in _MIX),
        knobs={},
        create_schema=create_schema,
        loader=loader,
        make_driver=make_driver,
        fork_state=fork_state,
        refork=refork,
    )


def _tpch_entry() -> WorkloadEntry:
    from repro.workload.tpch import (
        TPCH_KNOBS,
        TPCH_PRESETS,
        TPCH_TX_KINDS,
        TpchScanDriver,
        create_tpch_schema,
        load_tpch,
        rebuild_tpch_handle,
    )

    return WorkloadEntry(
        name="tpch-scan",
        description="TPC-H-style analytical scans: chunked fact-table "
        "scans with a join re-visit pass, dimension-table builds, and an "
        "optional HTAP probe/update mix (paper §3.3 scan resistance)",
        tx_kinds=TPCH_TX_KINDS,
        knobs=TPCH_KNOBS,
        create_schema=create_tpch_schema,
        loader=load_tpch,
        make_driver=TpchScanDriver,
        fork_state=lambda handle: None,
        refork=rebuild_tpch_handle,
        presets=TPCH_PRESETS,
    )


def _ycsb_entry() -> WorkloadEntry:
    from repro.workload.ycsb import (
        YCSB_KNOBS,
        YCSB_PRESETS,
        YCSB_TX_KINDS,
        YcsbDriver,
        create_ycsb_schema,
        load_ycsb,
        rebuild_ycsb_handle,
    )

    return WorkloadEntry(
        name="ycsb",
        description="YCSB-style key-value point access: Zipf-skewed "
        "read/update mix over one table (Flashield-motivated write-churn "
        "preset included)",
        tx_kinds=YCSB_TX_KINDS,
        knobs=YCSB_KNOBS,
        create_schema=create_ycsb_schema,
        loader=load_ycsb,
        make_driver=YcsbDriver,
        fork_state=lambda handle: None,
        refork=rebuild_ycsb_handle,
        presets=YCSB_PRESETS,
    )


@lru_cache(maxsize=None)
def _registry() -> dict[str, WorkloadEntry]:
    entries = (_tpcc_entry(), _tpch_entry(), _ycsb_entry())
    return {entry.name: entry for entry in entries}


def available_workloads() -> tuple[str, ...]:
    """Canonical workload names, in catalogue order (``tpcc`` first)."""
    return tuple(_registry())


def get_workload_entry(name: str) -> WorkloadEntry:
    """Look up one entry; raises :class:`WorkloadError` for unknown names."""
    try:
        return _registry()[name]
    except KeyError:
        known = ", ".join(available_workloads())
        raise WorkloadError(
            f"unknown workload {name!r} (available: {known})"
        ) from None


def workload_spec(
    name: str = "tpcc",
    knobs: Mapping[str, Any] | None = None,
    preset: str | None = None,
) -> WorkloadSpec:
    """Canonicalise ``(name, knobs[, preset])`` into a :class:`WorkloadSpec`.

    Preset values apply first, explicit knobs override them.  Unknown
    workload names and unknown knob names raise :class:`WorkloadError`
    naming the accepted set (mirroring policy-knob validation); knob
    values equal to the entry's defaults are dropped so equal workloads
    always produce equal (and equally-hashed) specs.
    """
    entry = get_workload_entry(name)
    merged: dict[str, Any] = {}
    if preset is not None:
        try:
            merged.update(entry.presets[preset])
        except KeyError:
            known = ", ".join(sorted(entry.presets)) or "(none)"
            raise WorkloadError(
                f"workload {name!r} has no preset {preset!r} "
                f"(available: {known})"
            ) from None
    if knobs:
        merged.update(knobs)
    unknown = sorted(set(merged) - set(entry.knobs))
    if unknown:
        accepted = ", ".join(sorted(entry.knobs)) or "(none)"
        raise WorkloadError(
            f"workload {name!r} does not accept knob(s) "
            f"{', '.join(unknown)} (accepted: {accepted})"
        )
    defaults = dict(entry.knobs)
    kept = tuple(
        sorted((k, v) for k, v in merged.items() if v != defaults[k])
    )
    return WorkloadSpec(name=name, knobs=kept)


#: The default spec every pre-registry call site implicitly ran.
TPCC_SPEC = WorkloadSpec()


@lru_cache(maxsize=None)
def estimate_workload_pages(spec: WorkloadSpec, scale: ScaleProfile) -> int:
    """Database footprint (pages) loading ``spec`` at ``scale`` allocates.

    Runs the entry's schema-creation logic against a throwaway catalog —
    the same probe :func:`repro.tpcc.loader.estimate_db_pages` uses — so
    configs can be sized before any row is loaded.
    """
    from repro.db.catalog import Catalog

    class _CatalogOnly:
        def __init__(self) -> None:
            self.catalog = Catalog()

        def create_table(self, schema, expected_rows, growth_factor=1.0):
            return self.catalog.create_table(schema, expected_rows, growth_factor)

        def create_index(self, name, table, n_pages):
            return self.catalog.create_index(name, table, n_pages)

    entry = get_workload_entry(spec.name)
    probe = _CatalogOnly()
    entry.create_schema(probe, scale, **entry.config_knobs(spec))
    return probe.catalog.total_pages


def load_workload(dbms, scale: ScaleProfile, seed: int, spec: WorkloadSpec):
    """Create schema + rows for ``spec`` on a fresh DBMS; returns the
    database handle ``make_driver`` consumes."""
    entry = get_workload_entry(spec.name)
    return entry.loader(dbms, scale, seed, **entry.config_knobs(spec))


def make_workload(
    name: str,
    dbms,
    scale: ScaleProfile | None = None,
    seed: int = 42,
    preset: str | None = None,
    **knobs,
):
    """Load ``name`` onto ``dbms`` and return a ready-to-run driver::

        driver = make_workload("ycsb", dbms, scale, n_keys=5000)
        driver.run(100)

    ``scale`` defaults to :data:`~repro.tpcc.scale.TINY`; the returned
    driver exposes ``.database`` (the loaded handle) and ``.stats``.
    """
    from repro.tpcc.scale import TINY

    if scale is None:
        scale = TINY
    spec = workload_spec(name, knobs, preset=preset)
    entry = get_workload_entry(spec.name)
    database = load_workload(dbms, scale, seed, spec)
    return entry.make_driver(database, seed + 1, **entry.config_knobs(spec))
