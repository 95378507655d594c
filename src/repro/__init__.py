"""FaCE: Flash-Based Extended Cache for Higher Throughput and Faster Recovery.

A full-system reproduction of Kang, Lee & Moon (PVLDB 5(11), 2012): the
mvFIFO / Group-Second-Chance flash cache with recovery integration, the
Lazy-Cleaning / TAC / Exadata-style baselines, and the substrates they run
on — calibrated SSD/HDD/RAID device models, an LRU buffer pool with the
dirty/``fdirty`` flag protocol, a WAL with ARIES-style restart, a
page-based storage engine, and a scaled TPC-C workload.

Quick start::

    from repro import CachePolicy, run_steady_state, scaled_reference_config
    from repro.tpcc import TINY

    config = scaled_reference_config(db_pages=20_000,
                                     policy=CachePolicy.FACE_GSC)
    result = run_steady_state(config, TINY, measure_transactions=2_000)
    print(result.tpmc, result.flash_hit_rate)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core.config import CachePolicy, SystemConfig, scaled_reference_config
from repro.core.dbms import SimulatedDBMS, Transaction
from repro.errors import ReproError
from repro.flashcache.registry import available_policies, resolve_policy
from repro.obs import OBS, RegistrySnapshot, merge_snapshots
from repro.recovery.restart import RecoveryManager, RestartReport, crash_and_restart
from repro.sim.experiment import ExperimentConfig
from repro.sim.metrics import ThroughputSeries
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.runner import ExperimentRunner, RunResult, run_steady_state
from repro.sim.scenario import (
    CrashRecoveryScenario,
    CrashRun,
    ScenarioResult,
    ServiceResult,
    ServiceScenario,
    SteadyStateScenario,
)
from repro.tpcc.driver import TpccDriver
from repro.tpcc.loader import TpccDatabase, load_tpcc
from repro.tpcc.scale import ScaleProfile

__version__ = "1.0.0"

__all__ = [
    "CachePolicy",
    "CellSpec",
    "CrashRecoveryScenario",
    "CrashRun",
    "ExperimentConfig",
    "ExperimentRunner",
    "OBS",
    "RecoveryManager",
    "RegistrySnapshot",
    "ReproError",
    "RestartReport",
    "RunResult",
    "ScaleProfile",
    "ScenarioResult",
    "ServiceResult",
    "ServiceScenario",
    "SimulatedDBMS",
    "SteadyStateScenario",
    "SystemConfig",
    "ThroughputSeries",
    "TpccDatabase",
    "TpccDriver",
    "Transaction",
    "__version__",
    "available_policies",
    "crash_and_restart",
    "load_tpcc",
    "merge_snapshots",
    "resolve_policy",
    "run_cells",
    "run_steady_state",
    "scaled_reference_config",
]
