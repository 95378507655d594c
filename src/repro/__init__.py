"""FaCE: Flash-Based Extended Cache for Higher Throughput and Faster Recovery.

A full-system reproduction of Kang, Lee & Moon (PVLDB 5(11), 2012): the
mvFIFO / Group-Second-Chance flash cache with recovery integration, the
Lazy-Cleaning / TAC / Exadata-style baselines, and the substrates they run
on — calibrated SSD/HDD/RAID device models, an LRU buffer pool with the
dirty/``fdirty`` flag protocol, a WAL with ARIES-style restart, a
page-based storage engine, and a scaled TPC-C workload.

Quick start::

    from repro import CachePolicy, run_steady_state, scaled_reference_config
    from repro.tpcc.scale import TINY

    config = scaled_reference_config(db_pages=20_000,
                                     policy=CachePolicy.FACE_GSC)
    result = run_steady_state(config, TINY, measure_transactions=2_000)
    print(result.tpmc, result.flash_hit_rate)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The names below resolve on first use (PEP 562): ``import repro`` loads no
submodule, and ``from repro import ExperimentConfig`` loads only what a grid
is declared with.  Subpackages re-export nothing (``repro.obs``, which
defines the ``OBS`` singleton, aside); every other name is imported from the
module that defines it.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Defining module -> the public names it lends this package.
_EXPORTS = {
    "repro.core.config": ("CachePolicy", "SystemConfig", "scaled_reference_config"),
    "repro.core.dbms": ("SimulatedDBMS", "Transaction"),
    "repro.errors": ("ReproError",),
    "repro.flashcache.builders": ("available_policies", "resolve_policy"),
    "repro.obs": ("OBS", "RegistrySnapshot", "merge_snapshots"),
    "repro.recovery.restart": ("RecoveryManager", "RestartReport", "crash_and_restart"),
    "repro.sim.experiment": ("ExperimentConfig",),
    "repro.sim.metrics": ("ThroughputSeries",),
    "repro.sim.parallel": ("CellSpec", "run_cells"),
    "repro.sim.runner": ("ExperimentRunner", "RunResult", "run_steady_state"),
    "repro.sim.scenario": (
        "CrashRecoveryScenario",
        "CrashRun",
        "ScenarioResult",
        "ServiceScenario",
        "SteadyStateScenario",
    ),
    "repro.sim.service": ("ServiceResult",),
    "repro.tpcc.driver": ("TpccDriver",),
    "repro.tpcc.loader": ("TpccDatabase", "load_tpcc"),
    "repro.tpcc.scale": ("ScaleProfile",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
