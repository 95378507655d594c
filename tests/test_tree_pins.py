"""Tree-wide pins: env flags, the frozen benchmark's imports, deleted names.

Cheap whole-tree checks a deletion PR trips before the benchmark does:

* the ``REPRO_*`` environment variables named under ``src/`` are exactly
  the documented three — a new escape hatch (or a stale mention of a
  deleted one) fails here;
* everything ``perf/*.py`` imports from ``repro`` still resolves, and the
  traced pass can still find every function it wraps.  ``perf/`` is frozen
  between ``benchmark`` PRs, so ``src/`` has to keep those names;
* what the function census found no workload executing, and deleted
  (DESIGN.md §15), stays deleted.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"

#: Owner -> names deleted because only tests and examples reached them.
DELETED = {
    "repro.db": ("BTreeIndex",),
    "repro.core.dbms": ("TxPageAccessor",),
    "repro.core.dbms:SimulatedDBMS": (
        "update_slot", "tx_accessor", "create_btree_index",
        # Replaced by the page-at-a-time bulk load (load_rows / load_index).
        "load_insert", "load_index_insert", "_load_page",
    ),
    "repro.db.page": (
        "_RUN_TAGGED", "_pack_tagged", "_unpack_tagged", "_slot_shape",
        "_encode_value", "_decode_value",
    ),
    "repro.storage.codec": ("_KIND_VALUE", "_encode_value", "_decode_value"),
    # Reached by nothing at all, tests included.
    "repro.tpcc.random_gen:TpccRandom": ("amount", "choice"),
    "repro.tpcc.transactions": ("_replace",),
    "repro.tpcc.loader:TpccDatabase": ("db_pages",),
    "repro.db.schema:TableSchema": ("row_width", "column_names"),
    "repro.workload.registry:WorkloadSpec": ("knob_dict", "resolved_knobs"),
    "repro.obs.registry:MetricRegistry": ("metrics",),
    # A cell is described once: its protocol lives in ``scenario`` and its
    # workload in one WorkloadSpec; the Sweep facade and the crash shims
    # are gone, and progress is the one per-cell callback.
    "repro": ("Sweep", "SweepResults", "make_policy"),
    "repro.sim": (
        "Sweep", "SweepResults", "crash_mid_interval", "run_until_mid_interval",
    ),
    "repro.sim.parallel:CellSpec": (
        "measure_transactions", "warmup_min", "warmup_max",
        "checkpoint_interval", "workload_knobs",
    ),
    "repro.sim.scenario:CrashRecoveryScenario": ("run_measured",),
    "repro.sim.hardcrash": ("_scale_by_name", "_build_config"),
    # One grid command: ``run FIELD=V1[,V2...]`` replaced these subcommands,
    # and the sweep's two-column series went with ``sweep``.
    "repro.cli": (
        "_build_runner", "cmd_recover", "cmd_serve", "cmd_sweep", "cmd_ablate",
        "_POLICY_NAMES",
    ),
    "repro.analysis": ("format_series",),
    "repro.analysis.tables": ("format_series",),
    # One way to build a system: a cache or a store is built from the
    # SystemConfig alone, and the victim runs an ExperimentConfig.
    "repro.flashcache": ("make_policy", "PolicyEntry", "get_policy_entry"),
    "repro.flashcache.registry": (
        "make_policy", "PolicyEntry", "get_policy_entry", "_FACE_KNOBS",
        "_GROUP_KNOBS", "_make_face", "_make_gr", "_make_gsc", "_make_lc",
        "_make_lru2", "_make_tac", "_make_exadata", "_make_null",
    ),
    "repro.storage": ("BackendEntry", "get_backend_entry"),
    "repro.storage.registry": ("BackendEntry", "get_backend_entry"),
    "repro.sim.experiment": ("_SYSTEM_FIELDS",),
    "repro.sim.experiment:ExperimentConfig": (
        "lc_dirty_threshold", "tac_extent_pages", "tac_admit_threshold",
        "ckpt_segment_entries",
    ),
    "repro.core.config:SystemConfig": (
        "lc_dirty_threshold", "tac_extent_pages", "tac_admit_threshold",
    ),
    "repro.workload.registry:WorkloadEntry": ("headline_kind", "description"),
    # A name lives where it is defined: the service protocol is declared with
    # the other scenarios, and nothing re-exports either across the
    # declaration/engine line (DESIGN.md §6).
    "repro.sim.service": ("ServiceScenario",),
    "repro.sim.scenario": ("ServiceResult", "RunResult", "RecoveryManager"),
    # The executed access path is flat: the engine probes an index itself,
    # LRU order is the pool's frame table, and nothing pins a frame.
    "repro.db.index": ("PageAccessor",),
    "repro.db.index:HashIndex": ("insert", "delete", "lookup"),
    "repro.buffer.replacement": ("LruPolicy", "ReplacementPolicy", "make_policy"),
    "repro.buffer.replacement:ClockPolicy": ("touch",),
    "repro.errors": ("UnpinnedFrameError",),
    # Reference copies of what the engine writes out inline: tests drive the
    # engine's own path (MvFifoCache._enqueue, BufferPool.admit, the DBMS
    # read and update path), so no test passes while that path is broken.
    "repro.flashcache.directory:FifoDirectory": ("enqueue", "invalidate"),
    "repro.buffer.frame:Frame": (
        "pin", "unpin", "pinned", "pin_count",
        "__init__", "on_update", "on_fetch_from_disk", "on_fetch_from_flash",
    ),
    # LC is the LRU-2-ranked cache of the paper; ``lru2`` was LC with its
    # cleaner switched off, equal to LC in every committed cell.
    "repro.core.config:CachePolicy": ("LRU2",),
    "repro.flashcache.lc": ("Lru2Cache",),
    "repro.flashcache.lru2:Lru2Policy": (
        "__len__", "__contains__", "remove", "keys_coldest_first",
    ),
    # A device counts its own operations by kind (IOStats).
    "repro.sim.trace": ("IOTracer", "TraceEvent", "replay"),
    # Every store implements the batch calls, and builds only itself.
    "repro.storage.backing:PageStore": ("put_many", "peek_many", "__new__"),
}

#: Deleted modules.
DELETED_MODULES = ("repro.db.btree", "repro.sim.sweep", "repro.sim.crashes")

#: Callable -> keyword parameters it no longer takes.
DELETED_PARAMETERS = {
    "repro.sim.parallel:run_cells": ("on_cell",),
}

ENV_FLAGS = {
    "REPRO_TRACE_CACHE",
    "REPRO_OBS",
    "REPRO_REPLAY_WARMFORK",
}


def test_env_flags_under_src_are_exactly_the_documented_three():
    named = set()
    for path in (ROOT / "src").rglob("*.py"):
        named.update(re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text()))
    assert named == ENV_FLAGS


def _repro_imports(tree: ast.AST):
    """``(module, attribute-or-None)`` for every static ``repro`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    yield alias.name, None
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("repro")
        ):
            yield node.args[0].value, None


def test_perf_imports_from_repro_resolve():
    checked = 0
    for path in sorted(PERF.glob("*.py")):
        for module_name, attribute in _repro_imports(ast.parse(path.read_text())):
            module = importlib.import_module(module_name)
            if attribute is not None and not hasattr(module, attribute):
                # ``from package import submodule``
                importlib.import_module(f"{module_name}.{attribute}")
            checked += 1
    assert checked > 30  # the walk found perf/'s imports, not nothing


def test_perf_tracing_targets_resolve():
    # targets() imports every wrapped class and module (its one dynamic
    # ``import_module(f"repro.sim.{name}")`` included).  install() then reads
    # ``vars(owner)[name]``: a module-level function that moved raises
    # KeyError in the middle of a traced pass, while a method that moved is
    # silently left unwrapped — so the replay-side names are listed here.
    spec = importlib.util.spec_from_file_location("_perf_tracing", PERF / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    for layer, owner, name in targets:
        assert name in vars(owner), f"{layer}: {owner!r} lost {name!r}"
    wrapped = {(owner.__name__, name) for _, owner, name in targets}
    assert wrapped >= {
        ("ReplayRunner", "warm_up"),
        ("ReplayRunner", "measure"),
        ("ReplayRunner", "step"),
        ("repro.sim.replay", "fork_dbms"),
        ("repro.sim.replay", "fork_database"),
    }


def test_deleted_names_stay_deleted():
    for module_name in DELETED_MODULES:
        assert importlib.util.find_spec(module_name) is None, module_name
    assert not (ROOT / "examples" / "range_queries.py").exists()
    for owner, names in DELETED.items():
        module_name, _, attribute = owner.partition(":")
        target = importlib.import_module(module_name)
        if attribute:
            target = getattr(target, attribute)
        # A dataclass field with no default is no class attribute.
        fields = getattr(target, "__dataclass_fields__", {})
        for name in names:
            # Every class inherits ``object``'s methods: look in its own.
            back = name in vars(target) if hasattr(object, name) else hasattr(target, name)
            assert not back and name not in fields, f"{owner}.{name} is back"
    for owner, names in DELETED_PARAMETERS.items():
        module_name, _, attribute = owner.partition(":")
        parameters = inspect.signature(
            getattr(importlib.import_module(module_name), attribute)
        ).parameters
        for name in names:
            assert name not in parameters, f"{owner}({name}=...) is back"
