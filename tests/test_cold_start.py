"""The engine loads where a cell runs: registries and the tracer from cold.

Declaring a grid imports no engine module (DESIGN.md §6), so a process may
reach a registry, a cell or the traced pass's target list with nothing
else imported first.  Each test here starts a fresh interpreter:

* the policy, backend and workload registries answer the same names, in
  the same order, with the same knob table, and every policy's cache
  builds;
* a cell of each scenario kind, declared there, pickles and runs under
  ``run_cells(jobs=1)`` to the same result as in a warm process;
* ``perf/tracing.py::targets()`` finds the same ``(layer, owner, name)``
  triples whether nothing or the whole engine was imported first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cells
from repro.tpcc.scale import TINY

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter (``src`` and the repository root
    on its path); the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.splitlines()[-1])


#: The parent's registries, pinned: names in order, and the knobs each
#: policy's builder reads.
POLICIES = ("hdd-only", "ssd-only", "face", "face+gr", "face+gsc", "lc", "tac", "exadata")
_FACE = ["cache_fraction", "face_cache_clean", "face_write_through"]
KNOBS = {
    "hdd-only": [], "ssd-only": [],
    "face": _FACE, "face+gr": [*_FACE, "scan_depth"], "face+gsc": [*_FACE, "scan_depth"],
    "lc": ["cache_fraction"],
    "tac": ["cache_fraction"], "exadata": ["cache_fraction"],
}
CLASSES = (
    "NullFlashCache", "SsdOnlyCache", "MvFifoCache", "GroupReplacementCache",
    "GroupSecondChanceCache", "LazyCleaningCache", "TacCache",
    "ExadataStyleCache",
)
BACKENDS = ("memory", "sqlite", "mmap")
WORKLOADS = ("tpcc", "tpch-scan", "ycsb")


def test_registries_from_a_cold_start():
    found = _fresh("""
import json, sys
from repro.flashcache.builders import available_policies, policy_knobs, resolve_policy
from repro.storage.registry import available_backends
from repro.workload.registry import available_workloads

found = {
    "policies": available_policies(),
    "knobs": {p: sorted(policy_knobs(resolve_policy(p))) for p in available_policies()},
    "backends": available_backends(),
    "workloads": available_workloads(),
    "engine": "repro.core.dbms" in sys.modules,
}
from repro.core.config import scaled_reference_config
from repro.core.policies import build_database_device, build_flash_volume
from repro.flashcache.registry import build_cache_from_config
from repro.storage.registry import page_store_class
from repro.storage.volume import Volume

built = []
for name in available_policies():
    config = scaled_reference_config(4096, policy=resolve_policy(name))
    flash = build_flash_volume(config) if config.cache_policy.uses_flash else None
    cache = build_cache_from_config(config, flash, Volume(build_database_device(config)))
    built.append(type(cache).__name__)
found["built"] = built
found["stores"] = [page_store_class(n).backend_name for n in available_backends()]
print(json.dumps(found))
""")
    assert tuple(found["policies"]) == POLICIES
    assert found["knobs"] == KNOBS
    assert tuple(found["backends"]) == BACKENDS
    assert tuple(found["workloads"]) == WORKLOADS
    assert found["engine"] is False  # naming them loaded no engine module
    assert tuple(found["built"]) == CLASSES
    assert tuple(found["stores"]) == BACKENDS


#: One small cell of each scenario kind.
_BASE = dict(measure_transactions=60, warmup_min=20, warmup_max=300)
CELLS = {
    "steady": dict(_BASE),
    "crash": dict(_BASE, scenario="crash", checkpoint_interval=0.05, crash_max_transactions=5_000),
    "service": dict(_BASE, scenario="service", n_clients=4),
}


def _summary(result) -> list:
    """What two runs of one cell must agree on, as JSON."""
    kind = type(result).__name__
    if kind == "CrashRun":
        return [kind, result.transactions_before_crash, result.restart_seconds]
    if kind == "ServiceResult":
        return [kind, result.transactions, result.tpmc, result.p95_seconds]
    return [kind, result.transactions, result.tpmc]


def test_a_cell_of_each_scenario_kind_declared_cold_pickles_and_runs():
    found = _fresh("""
import json, pickle, sys
from repro.sim.experiment import ExperimentConfig
from repro.sim.parallel import CellSpec, run_cells
from repro.tpcc.scale import TINY
from tests.test_cold_start import CELLS, _summary

specs = [
    pickle.loads(pickle.dumps(CellSpec.from_config((kind,), ExperimentConfig(scale=TINY, **fields))))
    for kind, fields in CELLS.items()
]
engine = "repro.core.dbms" in sys.modules
cells = run_cells(specs, jobs=1)
print(json.dumps([engine, [_summary(r) for r in cells.values()]]))
""")
    engine, summaries = found
    assert engine is False  # declaring and pickling the cells loaded no engine
    specs = [
        CellSpec.from_config((kind,), ExperimentConfig(scale=TINY, **fields))
        for kind, fields in CELLS.items()
    ]
    warm = [_summary(r) for r in run_cells(specs, jobs=1).values()]
    assert summaries == json.loads(json.dumps(warm))
    assert [s[0] for s in summaries] == ["RunResult", "CrashRun", "ServiceResult"]


_TARGETS = """
import importlib.util, json, pkgutil, sys
{first}
spec = importlib.util.spec_from_file_location("_perf_tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

def name(owner):
    return owner.__name__ if isinstance(owner, type(sys)) else f"{{owner.__module__}}.{{owner.__qualname__}}"

print(json.dumps(sorted([layer, name(owner), attr] for layer, owner, attr in tracing.targets())))
"""

#: Imports every module of the package (``__main__`` runs the CLI).
_WHOLE_ENGINE = """
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
"""


def test_tracer_targets_do_not_depend_on_what_was_imported_first():
    tracing = str(ROOT / "perf" / "tracing.py")
    cold = _fresh(_TARGETS.format(first="", tracing=tracing))
    warm = _fresh(_TARGETS.format(first=_WHOLE_ENGINE, tracing=tracing))
    assert cold == warm
    layers = {layer for layer, _, _ in cold}
    assert layers >= {"flashcache", "device", "store.mmap", "codec", "service", "warmstate"}
    # Every policy class and Device subclass that defines a wrapped method,
    # found from cold: the policies because ``targets()`` imports the
    # policy registry, FlashDevice because the device factory imports it.
    assert {owner for layer, owner, _ in cold if layer in ("flashcache", "device")} == {
        "repro.flashcache.base.FlashCacheBase",
        "repro.flashcache.exadata.ExadataStyleCache",
        "repro.flashcache.group.GroupReplacementCache",
        "repro.flashcache.lc.LazyCleaningCache",
        "repro.flashcache.mvfifo.MvFifoCache",
        "repro.flashcache.null.NullFlashCache",
        "repro.flashcache.tac.TacCache",
        "repro.storage.device.Device",
        "repro.storage.ssd.FlashDevice",
        "repro.storage.volume.Volume",
    }
