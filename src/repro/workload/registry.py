"""Workload registry: one named catalogue of every driveable workload.

Before this module, "which workload does this cell run?" had exactly one
answer — TPC-C — hard-wired into the experiment runner, the trace
recorder and the warm-state forker.  In the registry every workload is one
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

The names, knobs and presets are declared here, apart from the drivers
and loaders, as :mod:`repro.flashcache.builders` declares the policies: a
grid names, validates and canonicalises its workloads without importing
any of them, and an entry (driver, loader, schema) is built where a cell
first needs one.

Entry points:

* :func:`available_workloads` — canonical names, in catalogue order;
* :func:`get_workload_entry` — lookup raising
  :class:`~repro.errors.WorkloadError` naming the known set;
* :func:`workload_spec` — ``(name, knobs)`` -> canonical, hashable
  :class:`WorkloadSpec`, validating knob names against the declaration;
* :func:`make_workload` — build a loaded, ready-to-run driver.

Boundary traces (:mod:`repro.sim.trace`) are workload-agnostic — a trace
is just the logical page stream above the buffer pool — so every
registered workload gets the replay fast path, trace caching and the
parallel sweep engine for free.  What is *not* workload-agnostic is trace
*identity*: a cached trace is keyed by ``(scale, seed, workload)`` (see
DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping

from repro.errors import WorkloadError
from repro.tpcc.scale import ScaleProfile


#: TPC-H scan knob defaults: the pure-scan configuration the scan-resistance
#: gate runs (no OLTP admixture).
TPCH_KNOBS = {
    "scan_pages": 96,
    "scan_skew": 0.8,
    "probe_fraction": 0.0,
    "update_fraction": 0.0,
}

#: Named TPC-H knob bundles.  ``htap`` interleaves point probes and updates
#: with the scans — the mixed operational/analytical case.
TPCH_PRESETS = {
    "htap": {"probe_fraction": 0.6, "update_fraction": 0.2},
}

#: YCSB knob defaults.  ``n_keys=None`` derives the table cardinality from
#: the scale profile (:func:`repro.workload.ycsb.resolve_n_keys`), so the
#: same spec sizes sanely at TINY and BENCH.
YCSB_KNOBS = {
    "n_keys": None,
    "zipf_s": 0.99,
    "update_fraction": 0.3,
    "ops_per_tx": 8,
}

#: Named YCSB knob bundles.  ``write-churn`` is the Flashield-style stress
#: mix: most operations write, and the milder skew keeps the write working
#: set wide enough to churn a flash cache that admits on entry.
YCSB_PRESETS = {
    "write-churn": {"update_fraction": 0.9, "zipf_s": 0.7},
}


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
    tx_kinds: tuple[str, ...]
    knobs: Mapping[str, Any]
    create_schema: Callable[..., None]
    loader: Callable[..., Any]
    make_driver: Callable[..., Any]
    fork_state: Callable[[Any], Any]
    refork: Callable[..., Any]

    def config_knobs(self, spec: "WorkloadSpec") -> dict[str, Any]:
        """This entry's full knob values for ``spec``: the defaults merged
        with the spec's overrides."""
        if spec.name != self.name:
            raise WorkloadError(
                f"spec is for workload {spec.name!r}, not {self.name!r}"
            )
        return {**dict(self.knobs), **dict(spec.knobs)}


# -- entry construction (imports deferred to keep module import light) ---------


def _tpcc_entry() -> WorkloadEntry:
    from repro.tpcc.driver import _MIX, TpccDriver
    from repro.tpcc.loader import _create_schema, load_tpcc

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
        tx_kinds=tuple(kind for kind, _ in _MIX),
        knobs={},
        create_schema=_create_schema,
        loader=load_tpcc,
        make_driver=TpccDriver,
        fork_state=fork_state,
        refork=refork,
    )


def _tpch_entry() -> WorkloadEntry:
    from repro.workload.tpch import (
        TPCH_TX_KINDS,
        TpchScanDriver,
        create_tpch_schema,
        load_tpch,
        rebuild_tpch_handle,
    )

    return WorkloadEntry(
        name="tpch-scan",
        tx_kinds=TPCH_TX_KINDS,
        knobs=TPCH_KNOBS,
        create_schema=create_tpch_schema,
        loader=load_tpch,
        make_driver=TpchScanDriver,
        fork_state=lambda handle: None,
        refork=rebuild_tpch_handle,
    )


def _ycsb_entry() -> WorkloadEntry:
    from repro.workload.ycsb import (
        YCSB_TX_KINDS,
        YcsbDriver,
        create_ycsb_schema,
        load_ycsb,
        rebuild_ycsb_handle,
    )

    return WorkloadEntry(
        name="ycsb",
        tx_kinds=YCSB_TX_KINDS,
        knobs=YCSB_KNOBS,
        create_schema=create_ycsb_schema,
        loader=load_ycsb,
        make_driver=YcsbDriver,
        fork_state=lambda handle: None,
        refork=rebuild_ycsb_handle,
    )


#: Workload name -> (knob defaults, presets, entry builder), in catalogue
#: order: what a grid validates a workload against, and what a cell first
#: calls to build its entry.
_WORKLOADS: dict[str, tuple[Mapping[str, Any], Mapping[str, Mapping[str, Any]], Callable]] = {
    "tpcc": ({}, {}, _tpcc_entry),
    "tpch-scan": (TPCH_KNOBS, TPCH_PRESETS, _tpch_entry),
    "ycsb": (YCSB_KNOBS, YCSB_PRESETS, _ycsb_entry),
}


def available_workloads() -> tuple[str, ...]:
    """Canonical workload names, in catalogue order (``tpcc`` first)."""
    return tuple(_WORKLOADS)


def _declared(name: str) -> tuple[Mapping[str, Any], Mapping[str, Mapping[str, Any]], Callable]:
    """``name``'s (knobs, presets, entry builder); raises
    :class:`WorkloadError` for unknown names."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        known = ", ".join(available_workloads())
        raise WorkloadError(
            f"unknown workload {name!r} (available: {known})"
        ) from None


@lru_cache(maxsize=None)
def get_workload_entry(name: str) -> WorkloadEntry:
    """Build (once) and return one entry; raises :class:`WorkloadError` for
    unknown names."""
    return _declared(name)[2]()


def workload_spec(
    name: str = "tpcc",
    knobs: Mapping[str, Any] | None = None,
    preset: str | None = None,
) -> WorkloadSpec:
    """Canonicalise ``(name, knobs[, preset])`` into a :class:`WorkloadSpec`.

    Preset values apply first, explicit knobs override them.  Unknown
    workload names and unknown knob names raise :class:`WorkloadError`
    naming the accepted set; knob values equal to the entry's defaults are
    dropped so equal workloads always produce equal (and equally-hashed)
    specs.
    """
    declared_knobs, presets, _ = _declared(name)
    merged: dict[str, Any] = {}
    if preset is not None:
        try:
            merged.update(presets[preset])
        except KeyError:
            known = ", ".join(sorted(presets)) or "(none)"
            raise WorkloadError(
                f"workload {name!r} has no preset {preset!r} "
                f"(available: {known})"
            ) from None
    if knobs:
        merged.update(knobs)
    unknown = sorted(set(merged) - set(declared_knobs))
    if unknown:
        accepted = ", ".join(sorted(declared_knobs)) or "(none)"
        raise WorkloadError(
            f"workload {name!r} does not accept knob(s) "
            f"{', '.join(unknown)} (accepted: {accepted})"
        )
    defaults = dict(declared_knobs)
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

    entry = get_workload_entry(spec.name)
    probe = Catalog()  # a schema builder needs only create_table / create_index
    entry.create_schema(probe, scale, **entry.config_knobs(spec))
    return probe.total_pages


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
